(* Fuzz/property tests for the v2 binary payload codec (`Codec_bin`)
   and the v2 binary framing (`Wire`), mirroring what
   `test_wire_formats` establishes for the v1 text formats:

   - round-trips are bit-exact (encode → decode → encode is the
     identity on bytes) and agree with the text codec on values;
   - any strict prefix of an encoding is rejected with `Failure`;
   - arbitrary single-byte corruption either still decodes (to some
     value) or raises `Failure` — never any other exception;
   - the frame decoder resynchronises after an oversized v2 frame and
     reads v1 and v2 frames interleaved on one connection. *)

let qcheck = Qseed.to_alcotest

(* ---------- generators (trees/assignments come from the v1 suite) ---------- *)

let rule_gen =
  QCheck.Gen.(
    oneof
      [
        return Bufins.Prune.deterministic;
        (let* p_l = float_range 0.5 1.0 and* p_t = float_range 0.5 1.0 in
         return (Bufins.Prune.two_param ~p_l ~p_t ()));
        (let* alpha = float_range 0.01 0.99 in
         return (Bufins.Prune.one_param ~alpha));
        (let* alpha_l = float_range 0.0 0.49
         and* alpha_u = float_range 0.51 1.0
         and* beta_l = float_range 0.0 0.49
         and* beta_u = float_range 0.51 1.0 in
         return (Bufins.Prune.four_param ~alpha_l ~alpha_u ~beta_l ~beta_u ()));
      ])

let request_gen =
  QCheck.Gen.(
    let* tree = Test_wire_formats.tree_gen in
    let* id = int_range 0 1_000_000
    and* seed = int_range 0 100_000
    and* mode =
      oneofl
        [ Experiments.Common.Nom; Experiments.Common.D2d;
          Experiments.Common.Wid ]
    and* rule = rule_gen
    and* deadline_ms = int_range 0 100_000
    and* mc_trials = int_range 0 1000
    and* wire_sizing = bool
    (* 0 (the pre-sample default, omitted from the v1 encoding) must
       stay common so the historical-bytes path is exercised. *)
    and* samples = oneof [ return 0; int_range 1 4096 ]
    and* relax = oneof [ return 1.0; float_range 0.25 4.0 ]
    (* 0 (the default library, omitted from both encodings) must stay
       common so the historical-bytes path is exercised. *)
    and* btypes = oneof [ return 0; int_range 1 32 ]
    (* Max_yield (the default objective, omitted from both encodings)
       must likewise stay common. *)
    and* objective =
      oneof
        [
          return Bufins.Dominance.Max_yield;
          (let* t = float_range (-1e6) 1e6 in
           return (Bufins.Dominance.Min_power t));
          (let* w = float_range 0.0 10.0 in
           return (Bufins.Dominance.Weighted w));
        ]
    and* eps_power = oneof [ return 0.0; float_range 1e-6 1.0 ] in
    return
      {
        Serve.Protocol.id;
        seed;
        mode;
        rule;
        deadline_ms;
        mc_trials;
        wire_sizing;
        samples;
        relax;
        btypes;
        objective;
        eps_power;
        tree;
      })

let arb_request =
  QCheck.make request_gen ~print:Serve.Protocol.encode_request

let finite_float = QCheck.Gen.float_range (-1e9) 1e9

let response_gen =
  QCheck.Gen.(
    let* r_id = int_range 0 1_000_000
    and* nodes = int_range 1 10_000
    and* peak_candidates = int_range 0 1_000_000
    and* total_candidates = int_range 0 10_000_000
    and* root_mean = finite_float
    and* root_std = float_range 0.0 1e6
    and* root_yield95 = finite_float
    and* sampled =
      option
        (let* s_k = int_range 1 4096
         and* s_mean = finite_float
         and* s_std = float_range 0.0 1e6
         and* s_rat_at_yield = finite_float in
         return { Serve.Protocol.s_k; s_mean; s_std; s_rat_at_yield })
    and* mc =
      option (let* m = finite_float and* s = float_range 0.0 1e6 in
              return (m, s))
    and* r_power = option (float_range 0.0 1e6)
    and* assignment = Test_wire_formats.assignment_gen in
    return
      {
        Serve.Protocol.r_id;
        nodes;
        peak_candidates;
        total_candidates;
        root_mean;
        root_std;
        root_yield95;
        sampled;
        mc;
        r_power;
        assignment;
      })

let arb_response =
  QCheck.make response_gen ~print:Serve.Protocol.encode_response

(* A canonical form for value comparison: the deterministic text
   encoding (comparing `Rctree.Tree.t` structurally would compare
   internal arrays; the text form is the protocol's own notion of
   equality). *)
let canon_req = Serve.Protocol.encode_request
let canon_resp = Serve.Protocol.encode_response

(* ---------- bit-exact round-trips, equal to the text codec ---------- *)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"v2 request round-trip is bit-exact and v1-equal"
    ~count:100 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let q' = Serve.Codec_bin.decode_request b in
      Serve.Codec_bin.encode_request q' = b
      && canon_req q' = canon_req q
      && canon_req (Serve.Protocol.decode_request (canon_req q)) = canon_req q')

let prop_response_roundtrip =
  QCheck.Test.make ~name:"v2 response round-trip is bit-exact and v1-equal"
    ~count:200 arb_response (fun r ->
      let b = Serve.Codec_bin.encode_response r in
      let r' = Serve.Codec_bin.decode_response b in
      Serve.Codec_bin.encode_response r' = b
      && canon_resp r' = canon_resp r
      && canon_resp (Serve.Protocol.decode_response (canon_resp r))
         = canon_resp r')

let prop_tree_roundtrip =
  QCheck.Test.make ~name:"v2 tree round-trip is bit-exact and Io-equal"
    ~count:100 Test_wire_formats.arb_tree (fun t ->
      let b = Serve.Codec_bin.encode_tree t in
      let t' = Serve.Codec_bin.decode_tree b in
      Serve.Codec_bin.encode_tree t' = b
      && Rctree.Io.to_string t' = Rctree.Io.to_string t)

let prop_assignment_roundtrip =
  QCheck.Test.make ~name:"v2 assignment round-trip is bit-exact" ~count:200
    Test_wire_formats.arb_assignment (fun a ->
      let b = Serve.Codec_bin.encode_assignment a in
      Serve.Codec_bin.decode_assignment b = a
      && Serve.Codec_bin.encode_assignment (Serve.Codec_bin.decode_assignment b)
         = b)

let prop_error_roundtrip =
  QCheck.Test.make ~name:"v2 error round-trip"
    ~count:100
    QCheck.(
      make
        Gen.(
          let* code =
            oneofl
              [ Serve.Protocol.err_parse; Serve.Protocol.err_busy;
                Serve.Protocol.err_internal ]
          and* message = string_size ~gen:Gen.printable (Gen.int_range 0 60) in
          return { Serve.Protocol.code; message }))
    (fun e ->
      let b = Serve.Codec_bin.encode_error e in
      let e' = Serve.Codec_bin.decode_error b in
      Serve.Codec_bin.encode_error e' = b && e'.Serve.Protocol.code = e.Serve.Protocol.code)

(* ---------- router helpers ---------- *)

let prop_id_rewrite =
  QCheck.Test.make ~name:"request id reads/rewrites without decoding"
    ~count:50
    QCheck.(pair arb_request (int_range 0 1_000_000))
    (fun (q, id') ->
      let b = Serve.Codec_bin.encode_request q in
      Serve.Codec_bin.request_id b = q.Serve.Protocol.id
      &&
      let b' = Serve.Codec_bin.with_request_id b id' in
      Serve.Codec_bin.request_id b' = id'
      && (Serve.Codec_bin.decode_request b').Serve.Protocol.id = id'
      && String.length b' = String.length b)

let prop_tree_span =
  QCheck.Test.make ~name:"request_tree_span locates the tree blob"
    ~count:50 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let off, len = Serve.Codec_bin.request_tree_span b in
      (* The extension region (btypes/objective/eps_power) sits after
         the blob; without it the blob runs to the end of the
         payload. *)
      (q.Serve.Protocol.btypes <> 0
      || q.Serve.Protocol.objective <> Bufins.Dominance.Max_yield
      || q.Serve.Protocol.eps_power <> 0.0
      || off + len = String.length b)
      && String.sub b off len = Serve.Codec_bin.encode_tree q.Serve.Protocol.tree)

(* ---------- truncation and corruption never crash ---------- *)

let prop_request_truncation =
  QCheck.Test.make ~name:"every strict prefix of a request is a Failure"
    ~count:40 arb_request (fun q ->
      let b = Serve.Codec_bin.encode_request q in
      let n = String.length b in
      (* The extension region after the tree blob is optional and
         self-delimiting, so a cut landing exactly on an entry
         boundary there is a shorter-but-valid request (its trailing
         extensions revert to defaults).  Any cut before the region —
         anywhere inside the head or the tree blob — must fail. *)
      let off, len = Serve.Codec_bin.request_tree_span b in
      let ext_start = off + len in
      (* All short prefixes, then a sample across the payload. *)
      let cuts =
        List.init (min n 24) (fun i -> i)
        @ List.init 24 (fun i -> 24 + (i * (max 1 ((n - 24) / 24))))
      in
      List.for_all
        (fun k ->
          k >= n
          || (match Serve.Codec_bin.decode_request (String.sub b 0 k) with
             | _ -> k >= ext_start
             | exception Failure _ -> true))
        cuts)

let prop_response_corruption =
  QCheck.Test.make
    ~name:"byte corruption of a response decodes or raises Failure only"
    ~count:200
    QCheck.(pair arb_response (pair small_nat (int_range 0 255)))
    (fun (r, (pos, byte)) ->
      let b = Serve.Codec_bin.encode_response r in
      let pos = pos mod String.length b in
      let b' =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) b
      in
      match Serve.Codec_bin.decode_response b' with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

let prop_request_corruption =
  QCheck.Test.make
    ~name:"byte corruption of a request decodes or raises Failure only"
    ~count:200
    QCheck.(pair arb_request (pair small_nat (int_range 0 255)))
    (fun (q, (pos, byte)) ->
      let b = Serve.Codec_bin.encode_request q in
      let pos = pos mod String.length b in
      let b' =
        String.mapi (fun i c -> if i = pos then Char.chr byte else c) b
      in
      match Serve.Codec_bin.decode_request b' with
      | _ -> true
      | exception Failure _ -> true
      | exception _ -> false)

(* ---------- v2 framing: resync, interleaving, header errors ---------- *)

let drain_events dec =
  let rec go acc =
    match Serve.Wire.next dec with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []

(* Three bytes at a time, so headers and payloads split across
   feeds. *)
let feed_all dec s =
  let rec go i =
    if i < String.length s then begin
      let n = min 3 (String.length s - i) in
      Serve.Wire.feed dec (Bytes.of_string (String.sub s i n)) n;
      go (i + n)
    end
  in
  go 0

let test_v2_resync_after_oversized () =
  let dec = Serve.Wire.decoder ~max_payload:8 () in
  let stream =
    Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"ok" "hi"
    ^ Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"request"
        (String.make 20 'x')
    ^ Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"stats" "yes"
  in
  feed_all dec stream;
  match drain_events dec with
  | [ Serve.Wire.Frame { kind = "ok"; payload = "hi"; proto = Serve.Wire.V2 };
      Serve.Wire.Oversized { kind = "request"; len = 20; proto = Serve.Wire.V2 };
      Serve.Wire.Frame { kind = "stats"; payload = "yes"; proto = Serve.Wire.V2 };
    ] ->
    ()
  | events ->
    Alcotest.failf "unexpected event stream (%d events)" (List.length events)

let test_framings_interleave () =
  (* One connection, both framings alternating: each frame reports the
     encoding it arrived in. *)
  let dec = Serve.Wire.decoder () in
  let stream =
    Serve.Wire.frame_bytes ~proto:Serve.Wire.V1 ~kind:"request" "text"
    ^ Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"request" "bin"
    ^ Serve.Wire.frame_bytes ~proto:Serve.Wire.V1 ~kind:"stats" ""
    ^ Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"shutdown" ""
  in
  feed_all dec stream;
  let got =
    List.map
      (function
        | Serve.Wire.Frame f -> (f.Serve.Wire.kind, f.Serve.Wire.proto)
        | Serve.Wire.Oversized _ -> ("oversized", Serve.Wire.V1))
      (drain_events dec)
  in
  Alcotest.(check (list (pair string bool)))
    "kinds and protos"
    [ ("request", false); ("request", true); ("stats", false);
      ("shutdown", true) ]
    (List.map (fun (k, p) -> (k, p = Serve.Wire.V2)) got)

let test_v2_header_errors () =
  let bad_version =
    let b = Bytes.of_string
        (Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"ok" "") in
    Bytes.set b 4 '\x03';
    Bytes.to_string b
  in
  let bad_kind =
    let b = Bytes.of_string
        (Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"ok" "") in
    Bytes.set b 5 '\xff';
    Bytes.to_string b
  in
  let bad_magic = "\xABVB9\x02\x08\x00\x00\x00\x00" in
  List.iter
    (fun stream ->
      let dec = Serve.Wire.decoder () in
      feed_all dec stream;
      match drain_events dec with
      | _ -> Alcotest.fail "expected a framing Failure"
      | exception Failure _ -> ())
    [ bad_version; bad_kind; bad_magic ];
  (* A partial header is not an error — just an incomplete frame. *)
  let dec = Serve.Wire.decoder () in
  let frame = Serve.Wire.frame_bytes ~proto:Serve.Wire.V2 ~kind:"ok" "x" in
  feed_all dec (String.sub frame 0 6);
  Alcotest.(check bool) "partial header pends" true (drain_events dec = [])

let suite =
  [
    qcheck prop_request_roundtrip;
    qcheck prop_response_roundtrip;
    qcheck prop_tree_roundtrip;
    qcheck prop_assignment_roundtrip;
    qcheck prop_error_roundtrip;
    qcheck prop_id_rewrite;
    qcheck prop_tree_span;
    qcheck prop_request_truncation;
    qcheck prop_response_corruption;
    qcheck prop_request_corruption;
    Alcotest.test_case "v2 resync after oversized frame" `Quick
      test_v2_resync_after_oversized;
    Alcotest.test_case "v1 and v2 frames interleave on one stream" `Quick
      test_framings_interleave;
    Alcotest.test_case "v2 header corruption is a framing Failure" `Quick
      test_v2_header_errors;
  ]
