(* varbench: the repository's end-to-end and per-layer benchmark.

     main.exe --workload dp-table1|sample-k256|serve-mix --seed N
              --seconds S --trace 0|1
     main.exe --make-refs dp-table1|sample-k256
     main.exe --kernel-helper    (started by the program itself)

   Run from the root of a checkout (varbench/run.sh builds and calls
   it).  The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  A
   "varbench-meta" line before it records the run's metadata; on an
   untraced run a "varbench-raw" line then keeps the end-to-end times
   as measured, before their scaling to the reference host speed.
   --make-refs prints the reference lines of refs/<workload>.ref. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     | --make-refs NAME";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let make_refs = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> Harness.tracing := v = "1"; parse rest
    | "--make-refs" :: v :: rest -> make_refs := v; parse rest
    | [ "--kernel-helper" ] -> Harness.kernel_helper ()
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let kind = function
    | "dp-table1" -> Some Engines.Dp
    | "sample-k256" -> Some Engines.Sampled
    | _ -> None
  in
  if !make_refs <> "" then
    match kind !make_refs with Some k -> Engines.make_refs k | None -> usage ()
  else begin
    let seed = match !seed with Some s -> s | None -> usage () in
    if kind !workload = None && !workload <> "serve-mix" then usage ();
    (* A run that overruns its time limit, or is interrupted, stops the
       processes it started and prints no result. *)
    let stop msg =
      Sys.Signal_handle
        (fun _ ->
          Serve_mix.kill_cluster ();
          Harness.stop_helpers ();
          prerr_endline ("varbench: " ^ msg);
          exit 1)
    in
    Sys.set_signal Sys.sigalrm (stop "time limit exceeded");
    Sys.set_signal Sys.sigterm (stop "terminated");
    Sys.set_signal Sys.sigint (stop "interrupted");
    ignore (Unix.alarm 170);
    Harness.start_helpers (if kind !workload = None then 2 else 1);
    let metrics =
      Fun.protect
        ~finally:(fun () ->
          Serve_mix.kill_cluster ();
          Harness.stop_helpers ())
        (fun () ->
          match kind !workload with
          | Some k -> Engines.run k ~seed ~seconds:!seconds
          | None -> Serve_mix.run ~seed ~seconds:!seconds)
    in
    if !Harness.tracing then Harness.write_bspans ~workload:!workload;
    Harness.print_result metrics
  end
