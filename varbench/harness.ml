(* Shared machinery of the varbench program: timing and order
   statistics, benchmark-owned spans, self-time accounting over the
   program's own Obs spans, process memory, run metadata and the
   result line. *)

let now () = Unix.gettimeofday ()

(* ---------- order statistics ---------- *)

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))
  end

(* The median averages the two middle values of an even sample, so a
   two-pass run reports their mean rather than the smaller one. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))
  end

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* ---------- host speed ---------- *)

(* The host shares its cores with other tenants, and its speed drifts
   by a third or more between runs a minute apart (see NOTES.md).  So
   the timed end-to-end figures are scaled to a reference speed: a
   fixed kernel of the benchmark's own, which calls nothing of the
   library, is timed between operations, and a time [t] measured in a
   run whose median kernel round took [c] seconds is reported as
   [t *. reference_round_s /. c].

   The kernel allocates and collects like the engines do, so it feels
   the same slow-downs of the host's memory system.  It runs in a
   helper process with a heap of its own, so its time does not depend
   on the heap of the program under test.  The program and its
   helpers take turns, never running at once. *)
let reference_round_s = 0.012

(* One kernel round on fixed data: sort 30000 boxed floats, then build
   and fold a list of small float arrays.  Returns its wall time. *)
let kernel_round () =
  let t0 = now () in
  let n = 30_000 in
  let a = Array.init n (fun i -> ref (float_of_int (i * 7919 mod 30_011) *. 1.0001)) in
  Array.sort (fun x y -> Float.compare !x !y) a;
  let l = ref [] in
  for i = 0 to n - 1 do
    l := [| !(a.(i)); sqrt !(a.(i)); float_of_int i |] :: !l
  done;
  let s = List.fold_left (fun acc v -> acc +. (v.(0) *. v.(1)) -. v.(2)) 0.0 !l in
  ignore (Sys.opaque_identity s);
  now () -. t0

(* The helper's loop ([main.exe --kernel-helper]): one kernel round per
   byte read, answered with its time, until end of input. *)
let kernel_helper () =
  (try
     while true do
       ignore (input_char stdin);
       Printf.printf "%.9f\n%!" (kernel_round ())
     done
   with End_of_file -> ());
  exit 0

let helpers : (int * out_channel * in_channel) list ref = ref []
let rounds : float list ref = ref []

(* One kernel round in every helper at once; each helper's time is a
   sample. *)
let calibrate () =
  List.iter (fun (_, oc, _) -> output_char oc 'k'; flush oc) !helpers;
  List.iter
    (fun (_, _, ic) -> rounds := float_of_string (input_line ic) :: !rounds)
    !helpers

(* Start [n] helpers: one for a workload that runs on one core, one
   per core for serve-mix, whose load keeps both cores busy.  The
   program starts them before it opens any other file or socket, so
   the helpers hold none of them open. *)
let start_helpers n =
  for _ = 1 to n do
    let r_in, w_in = Unix.pipe ~cloexec:true () in
    let r_out, w_out = Unix.pipe ~cloexec:true () in
    let exe = Sys.executable_name in
    let pid = Unix.create_process exe [| exe; "--kernel-helper" |] r_in w_out Unix.stderr in
    Unix.close r_in;
    Unix.close w_out;
    helpers := (pid, Unix.out_channel_of_descr w_in, Unix.in_channel_of_descr r_out) :: !helpers
  done;
  (* The helpers' first rounds grow their heaps; they are not counted. *)
  for _ = 1 to 5 do
    calibrate ()
  done;
  rounds := []

(* Stop the helpers and reap them. *)
let stop_helpers () =
  let hs = !helpers in
  helpers := [];
  List.iter
    (fun (pid, oc, ic) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      close_out_noerr oc;
      close_in_noerr ic)
    hs

(* Median kernel round of the run so far, in seconds. *)
let round_s () = median (Array.of_list !rounds)

(* ---------- run-wide failure accounting ---------- *)

let attempted = ref 0
let failed = ref 0

(* Why the run is not correct beyond per-operation failures (dropped
   spans, a cluster that would not start, ...). *)
let fatal_notes : string list ref = ref []

let check ~what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "varbench: wrong output: %s\n%!" what
  end

let fatal msg =
  fatal_notes := msg :: !fatal_notes;
  Printf.eprintf "varbench: %s\n%!" msg

(* ---------- benchmark-owned spans ---------- *)

(* One span per public call the benchmark makes, recorded only in the
   traced run: name, start, end, the enclosing benchmark span (-1 at
   top level) and the operation's request id (net index within the
   pass, or request index on serve-mix).  Client threads record
   concurrently, hence the mutex. *)
type bspan = {
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;
  req : int;
}

let tracing = ref false

(* Whether spans are being recorded right now: the traced run
   alternates recorded and unrecorded stretches (see [with_obs]). *)
let recording = ref false
let bspans : bspan list ref = ref []
let bspan_count = ref 0
let bspan_lock = Mutex.create ()

(* Span timestamps count from program start, which keeps them exact in
   a float. *)
let origin = Unix.gettimeofday ()
let ns_of t = int_of_float ((t -. origin) *. 1e9)

(* [timed ~parent ~req name f] runs [f], returning its result and its
   wall time in seconds; in the traced run it also records a span and
   passes the span's id to [f] as the parent of nested calls. *)
let timed ?(parent = -1) ?(req = -1) name f =
  let id =
    if !recording then begin
      Mutex.lock bspan_lock;
      let id = !bspan_count in
      incr bspan_count;
      Mutex.unlock bspan_lock;
      id
    end
    else -1
  in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  if !recording then begin
    Mutex.lock bspan_lock;
    bspans :=
      { name; start_ns = ns_of t0; end_ns = ns_of t1; parent; req } :: !bspans;
    Mutex.unlock bspan_lock
  end;
  (r, t1 -. t0)

(* Where a run leaves its files (span dumps, cluster sockets and logs),
   inside the checkout. *)
let state_dir = ".varbench"

let ensure_state_dir () =
  try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_bspans ~workload =
  ensure_state_dir ();
  let oc = open_out (Printf.sprintf "%s/spans-%s.jsonl" state_dir workload) in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
        s.name s.start_ns s.end_ns s.parent s.req)
    (List.rev !bspans);
  close_out oc

(* ---------- the program's own spans ---------- *)

(* Nesting depth of the engines' span names, used to order spans that
   start and end on the same microsecond tick (node > lift > prune). *)
let depth name =
  match name with
  | "node" -> 0
  | "lift" -> 1
  | _ -> 2

(* Self time (ns) per span name over one snapshot of the Obs ring:
   each span's duration minus the part of it its nested spans cover.
   Spans come from one domain (every engine runs at jobs 1), so
   intervals nest; a stack recovers the tree. *)
let self_times (spans : Obs.Span.span list) =
  let a = Array.of_list spans in
  Array.sort
    (fun (x : Obs.Span.span) (y : Obs.Span.span) ->
      match compare x.ts_ns y.ts_ns with
      | 0 -> (
        match compare (y.ts_ns + y.dur_ns) (x.ts_ns + x.dur_ns) with
        | 0 -> compare (depth x.name) (depth y.name)
        | c -> c)
      | c -> c)
    a;
  let self = Array.map (fun (s : Obs.Span.span) -> s.dur_ns) a in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Obs.Span.span) ->
      let rec pop () =
        match !stack with
        | j :: rest when a.(j).ts_ns + a.(j).dur_ns < s.ts_ns + s.dur_ns ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with j :: _ -> self.(j) <- self.(j) - s.dur_ns | [] -> ());
      stack := i :: !stack)
    a;
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : Obs.Span.span) ->
      let key = s.cat ^ "/" ^ s.name in
      let self_ns, total_ns =
        Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0)
      in
      Hashtbl.replace tbl key (self_ns + self.(i), total_ns + s.dur_ns))
    a;
  tbl

(* Drain the Obs ring into [acc] (key -> self ns, total ns); the run
   is not correct if the ring overflowed since the last drain. *)
let drain_spans acc =
  let spans = Obs.Span.snapshot () in
  if Obs.Span.dropped () > 0 then
    fatal (Printf.sprintf "Obs span ring dropped %d spans" (Obs.Span.dropped ()));
  Hashtbl.iter
    (fun k (s, t) ->
      let s0, t0 = Option.value (Hashtbl.find_opt acc k) ~default:(0, 0) in
      Hashtbl.replace acc k (s0 + s, t0 + t))
    (self_times spans);
  Obs.Span.clear ()

let span_ms acc key ~self =
  match Hashtbl.find_opt acc key with
  | Some (s, t) -> float_of_int (if self then s else t) /. 1e6
  | None -> 0.0

let counter name = Obs.Counters.get Obs.Counters.global name

(* Run [f] with the program's Obs instrumentation and the benchmark's
   own spans both on or both off. *)
let with_obs on f =
  if on then Obs.Control.enable () else Obs.Control.disable ();
  recording := on;
  Fun.protect f ~finally:(fun () ->
      Obs.Control.disable ();
      recording := false)

(* ---------- memory and GC ---------- *)

(* VmHWM (peak resident set) of a live process, in MB; 0 if gone. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let child_pids pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    String.split_on_char ' ' line
    |> List.filter_map int_of_string_opt

type gc_mark = { alloc_b : float; majors : int }

let gc_mark () =
  { alloc_b = Gc.allocated_bytes (); majors = (Gc.quick_stat ()).major_collections }

let gc_since m =
  let n = gc_mark () in
  ((n.alloc_b -. m.alloc_b) /. 1e6, float_of_int (n.majors - m.majors))

(* ---------- run metadata ---------- *)

(* The revision when the checkout is a git work tree, read from the
   files git keeps (no subprocess); "none" otherwise. *)
let git_rev () =
  let read p =
    try
      let ic = open_in p in
      let l = input_line ic in
      close_in ic;
      Some (String.trim l)
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
    let r = String.sub h 5 (String.length h - 5) in
    match read (Filename.concat ".git" r) with Some s -> s | None -> r)
  | Some h -> h
  | None -> "none"

(* Digest of the library sources the benchmark measures, so results from
   checkouts without git history still name the code they ran. *)
let src_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then [ p ]
           else [])
  in
  match files "lib" with
  | exception Sys_error _ -> "none"
  | fs ->
    Digest.to_hex
      (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) fs)))

let json_str s = Printf.sprintf "%S" s

(* One line of run metadata (schema varbuf-bench/2), printed before
   the result.  [samples] gives the sample count behind every
   percentile the run reports. *)
let print_meta ~workload ~seed ~seconds ~jobs ~shards ~samples extra =
  let fields =
    [
      ("schema", json_str "varbuf-bench/2");
      ("workload", json_str workload);
      ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("obs", string_of_bool !tracing);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("git_rev", json_str (git_rev ()));
      ("src_digest", json_str (src_digest ()));
      ("jobs", string_of_int jobs);
      ("shards", string_of_int shards);
      ( "percentile_samples",
        "{"
        ^ String.concat ", "
            (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) samples)
        ^ "}" );
    ]
    @ extra
  in
  print_endline
    ("varbench-meta {"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")

(* ---------- the result line ---------- *)

let print_result metrics =
  if !attempted = 0 then fatal "no operation was attempted";
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then fatal "a metric is not a finite number";
  let correct = !failed = 0 && !fatal_notes = [] in
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
          (if Float.is_finite v then v else 0.0)
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " body)
