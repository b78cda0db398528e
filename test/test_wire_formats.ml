(* Fuzz/property tests for the two wire formats the serve protocol
   embeds: `Rctree.Io` trees and `Bufins.Assignment` bufferings.
   Round-trips must be exact on generated values; corrupted input must
   raise `Failure` with a line-numbered message; arbitrary truncation
   must either parse (a structurally valid prefix) or raise `Failure`
   — never any other exception and never a silent crash. *)

let qcheck = Qseed.to_alcotest

(* ---------- generators ---------- *)

let tree_gen =
  QCheck.Gen.(
    let* sinks = int_range 2 40 in
    let* seed = int_range 0 9999 in
    let* spread = float_range 0.0 200.0 in
    let* htree = frequency [ (4, return false); (1, return true) ] in
    if htree then
      let levels = 1 + (seed mod 3) in
      return (Rctree.Generate.h_tree ~seed ~levels ~die_um:8000.0 ())
    else
      let sink_params =
        { Rctree.Generate.default_sink_params with
          Rctree.Generate.rat_spread = spread }
      in
      return (Rctree.Generate.random_steiner ~sink_params ~seed ~sinks
                ~die_um:4000.0 ()))

let arb_tree =
  QCheck.make tree_gen ~print:(fun t -> Rctree.Io.to_string t)

let name_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* chars =
      list_repeat n (oneof [ char_range 'a' 'z'; char_range '0' '9' ])
    in
    return (String.init n (List.nth chars)))

let finite_float = QCheck.Gen.float_range (-1e6) 1e6

let buffer_gen =
  QCheck.Gen.(
    let* name = name_gen in
    let* cap = finite_float and* delay = finite_float and* res = finite_float in
    let* inv = frequency [ (3, return false); (1, return true) ] in
    return
      {
        Device.Buffer.name;
        cap_ff = cap;
        delay_ps = delay;
        res_kohm = res;
        polarity =
          (if inv then Device.Buffer.Inverting
           else Device.Buffer.Non_inverting);
      })

let width_gen =
  QCheck.Gen.(
    let* name = name_gen in
    let* r = finite_float and* c = finite_float in
    return { Device.Wire_lib.name; res_per_um = r; cap_per_um = c })

let assignment_gen =
  QCheck.Gen.(
    let* nb = int_range 0 20 and* nw = int_range 0 20 in
    (* Distinct node ids per section, as the engine produces. *)
    let* buffers =
      list_repeat nb (pair (int_range 1 10_000) buffer_gen)
    in
    let* widths = list_repeat nw (pair (int_range 1 10_000) width_gen) in
    let dedup kvs =
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs
    in
    return { Bufins.Assignment.buffers = dedup buffers; widths = dedup widths })

let arb_assignment =
  QCheck.make assignment_gen ~print:Bufins.Assignment.to_string

(* ---------- round-trips ---------- *)

let prop_tree_roundtrip =
  QCheck.Test.make ~name:"Rctree.Io round-trip is exact" ~count:100 arb_tree
    (fun tree ->
      let text = Rctree.Io.to_string tree in
      Rctree.Io.to_string (Rctree.Io.of_string text) = text)

let prop_assignment_roundtrip =
  QCheck.Test.make ~name:"Bufins.Assignment round-trip is exact" ~count:200
    arb_assignment (fun a ->
      let text = Bufins.Assignment.to_string a in
      Bufins.Assignment.of_string text = a
      && Bufins.Assignment.to_string (Bufins.Assignment.of_string text) = text)

(* ---------- corruption: Failure with a line number ---------- *)

(* Pick a content (non-comment, non-blank) line of [text] and corrupt
   it in a way guaranteed to be malformed; returns the mutated text. *)
let corrupt_line ~choice ~which text =
  let lines = String.split_on_char '\n' text in
  let idxs =
    List.concat
      (List.mapi
         (fun i l ->
           let l = String.trim l in
           if l <> "" && l.[0] <> '#' then [ i ] else [])
         lines)
  in
  let target = List.nth idxs (which mod List.length idxs) in
  let mutate line =
    let tokens =
      String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
    in
    match choice mod 4 with
    | 0 ->
      (* Unknown directive. *)
      String.concat " " ("bogus" :: List.tl tokens)
    | 1 ->
      (* Odd token count: dangling field key. *)
      String.concat " " (List.filteri (fun i _ -> i < List.length tokens - 1) tokens)
    | 2 ->
      (* Non-numeric value for the numeric field following "x"/"cap"/"r". *)
      let rec poison = function
        | key :: _ :: rest when key = "x" || key = "cap" || key = "r"
                                || key = "delay" || key = "wire" ->
          key :: "notanumber" :: poison rest
        | t :: rest -> t :: poison rest
        | [] -> []
      in
      let poisoned = poison tokens in
      if poisoned = tokens then String.concat " " ("bogus" :: List.tl tokens)
      else String.concat " " poisoned
    | _ ->
      (* Duplicate the line: duplicate id. *)
      line ^ "\n" ^ line
  in
  String.concat "\n"
    (List.mapi (fun i l -> if i = target then mutate l else l) lines)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let failure_has_line f =
  match f () with
  | _ -> false
  | exception Failure msg ->
    (* A line-numbered message, possibly behind a "tree "/"buffering "
       context prefix. *)
    contains_substring ~sub:"line " msg
  | exception _ -> false

let prop_tree_corruption =
  QCheck.Test.make ~name:"corrupted tree text fails with a line number"
    ~count:200
    QCheck.(triple arb_tree small_nat small_nat)
    (fun (tree, choice, which) ->
      let text = corrupt_line ~choice ~which (Rctree.Io.to_string tree) in
      failure_has_line (fun () -> Rctree.Io.of_string text))

let prop_assignment_corruption =
  QCheck.Test.make ~name:"corrupted buffering text fails with a line number"
    ~count:200
    QCheck.(triple arb_assignment small_nat small_nat)
    (fun (a, choice, which) ->
      (* An empty assignment has no content line to corrupt. *)
      QCheck.assume (a.Bufins.Assignment.buffers <> [] || a.Bufins.Assignment.widths <> []);
      let text = corrupt_line ~choice ~which (Bufins.Assignment.to_string a) in
      failure_has_line (fun () -> Bufins.Assignment.of_string text))

(* ---------- truncation: Failure or a valid value, never a crash ---------- *)

let prop_tree_truncation =
  QCheck.Test.make ~name:"truncated tree text never crashes" ~count:300
    QCheck.(pair arb_tree (float_range 0.0 1.0))
    (fun (tree, frac) ->
      let text = Rctree.Io.to_string tree in
      let cut = max 0 (int_of_float (frac *. float_of_int (String.length text))) in
      let truncated = String.sub text 0 (min cut (String.length text)) in
      match Rctree.Io.of_string truncated with
      | t ->
        (* A structurally valid prefix: must itself round-trip. *)
        Rctree.Io.to_string (Rctree.Io.of_string (Rctree.Io.to_string t))
        = Rctree.Io.to_string t
      | exception Failure _ -> true
      | exception _ -> false)

let prop_assignment_truncation =
  QCheck.Test.make ~name:"truncated buffering text never crashes" ~count:300
    QCheck.(pair arb_assignment (float_range 0.0 1.0))
    (fun (a, frac) ->
      let text = Bufins.Assignment.to_string a in
      let cut = max 0 (int_of_float (frac *. float_of_int (String.length text))) in
      let truncated = String.sub text 0 (min cut (String.length text)) in
      match Bufins.Assignment.of_string truncated with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

(* ---------- pinned cases ---------- *)

let test_structural_errors_are_line_numbered () =
  let cases =
    [
      ( "dangling parent",
        "node 0 root x 0 y 0\nsink 1 x 1 y 1 parent 7 wire 1 cap 1 rat 0 name s" );
      ( "sink with children",
        "node 0 root x 0 y 0\n\
         sink 1 x 1 y 1 parent 0 wire 1 cap 1 rat 0 name a\n\
         sink 2 x 2 y 2 parent 1 wire 1 cap 1 rat 0 name b" );
      ( "internal without children",
        "node 0 root x 0 y 0\n\
         node 1 internal x 1 y 1 parent 0 wire 1\n\
         sink 2 x 2 y 2 parent 0 wire 1 cap 1 rat 0 name s" );
      ( "negative wire",
        "node 0 root x 0 y 0\nsink 1 x 1 y 1 parent 0 wire -5 cap 1 rat 0 name s" );
      ( "too many children",
        "node 0 root x 0 y 0\n\
         node 1 internal x 1 y 1 parent 0 wire 1\n\
         sink 2 x 2 y 2 parent 1 wire 1 cap 1 rat 0 name a\n\
         sink 3 x 3 y 3 parent 1 wire 1 cap 1 rat 0 name b\n\
         sink 4 x 4 y 4 parent 1 wire 1 cap 1 rat 0 name c" );
    ]
  in
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool)
        (what ^ " raises a line-numbered Failure") true
        (failure_has_line (fun () -> Rctree.Io.of_string text)))
    cases

let test_empty_inputs () =
  (match Rctree.Io.of_string "" with
  | _ -> Alcotest.fail "empty tree text must not parse"
  | exception Failure _ -> ());
  let a = Bufins.Assignment.of_string "" in
  Alcotest.(check bool) "empty buffering is the empty assignment" true
    (a = { Bufins.Assignment.buffers = []; widths = [] })

let suite =
  [
    qcheck prop_tree_roundtrip;
    qcheck prop_assignment_roundtrip;
    qcheck prop_tree_corruption;
    qcheck prop_assignment_corruption;
    qcheck prop_tree_truncation;
    qcheck prop_assignment_truncation;
    Alcotest.test_case "structural errors carry line numbers" `Quick
      test_structural_errors_are_line_numbered;
    Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
  ]
