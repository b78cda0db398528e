(* Benchmark harness.

   Two parts:

   1. Bechamel micro-benchmarks of the operations whose complexity the
      paper argues about: 2P pruning/merging (linear) versus the 4P
      baseline (quadratic-ish), plus end-to-end DP runs per benchmark
      size class.  One Test.make per paper table/figure whose claim is
      about runtime.

   2. A Monte-Carlo scaling comparison: the same 2000-trial run
      sampled sequentially and through an `Exec.Pool`, asserting the
      two are bit-identical and reporting the wall-clock speedup plus
      the pool's per-task statistics.

   3. A loopback benchmark of the varbuf-serve daemon: throughput and
      p50/p95 request latency at one and at N concurrent clients,
      against an in-process server sharing one `Exec.Pool`.

   4. Regeneration of every table and figure of the evaluation section
      (the same harnesses `bin/experiments_main.exe` exposes), so that
      `dune exec bench/main.exe` prints the full paper-shaped output —
      run across the pool's domains when --jobs > 1.

   Pass --micro-only, --mc-only, --serve-only, --tables-only,
   --btypes-only (the buffer-library size sweep and its identity/
   frontier-growth gates) or --pareto-only (the power-aware Pareto
   frontier sweep over ε and its zero-energy identity gate) to run one
   part; --smoke runs a reduced
   micro pass with tight iteration budgets (the CI smoke-bench).  Whenever the micro pass runs, the
   per-benchmark ns/run figures plus a DP allocation probe are written
   as machine-readable JSON to BENCH.json (override with
   --bench-json PATH);
   --jobs N (default: VARBUF_JOBS or the recommended domain count)
   sizes the pool. *)

open Bechamel
open Toolkit

(* ---------- fixtures ---------- *)

let fixture_sols n ~sigma =
  (* A synthetic pruned-frontier-like candidate frontier: loads and
     rats increasing, each with a couple of shared plus one private
     variation source. *)
  Array.init n (fun i ->
      let fi = float_of_int i in
      let load =
        Linform.make ~nominal:(20.0 +. (3.0 *. fi))
          ~sens:[ (0, sigma); (1000 + i, sigma *. 0.5) ]
      in
      let rat =
        Linform.make ~nominal:(100.0 +. (7.0 *. fi))
          ~sens:[ (1, 4.0 *. sigma); (2000 + i, sigma) ]
      in
      { Bufins.Sol.load; rat; power = 0.0; choice = Bufins.Sol.At_sink i })

let shuffled sols =
  (* Deterministic interleave so pruning has work to do. *)
  let n = Array.length sols in
  Array.init n (fun i -> sols.((i * 7919) mod n))

let bench_prune rule n =
  let sols = shuffled (fixture_sols n ~sigma:1.0) in
  Staged.stage (fun () -> ignore (Bufins.Prune.prune rule sols))

let bench_merge n =
  let a = fixture_sols n ~sigma:1.0 in
  let b = fixture_sols n ~sigma:1.2 in
  Staged.stage (fun () -> ignore (Bufins.Engine.merge_frontiers ~node:0 a b))

(* Canonical forms shaped like the DP's: a handful of sources each,
   with partial overlap (the shared inter-die/spatial ids) so the merge
   walk exercises all three branches.  The [Linform.Reference] oracle
   is the pre-SoA-style assoc-list implementation — benchmarking both
   measures exactly the kernel rewrite's speedup. *)
let fixture_form ~offset k =
  Linform.make ~nominal:(100.0 +. float_of_int offset)
    ~sens:
      (List.init k (fun i ->
           if i < 4 then (i, 0.5 +. (0.1 *. float_of_int i))
           else (100 + (2 * i) + offset, 0.3 +. (0.05 *. float_of_int i))))

let kernel_tests =
  let a = fixture_form ~offset:0 12 and b = fixture_form ~offset:1 12 in
  let ra = Linform.Reference.of_form a and rb = Linform.Reference.of_form b in
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"add/soa" (Staged.stage (fun () -> ignore (Linform.add a b)));
      Test.make ~name:"add/ref"
        (Staged.stage (fun () -> ignore (Linform.Reference.add ra rb)));
      Test.make ~name:"axpy_shift/soa"
        (Staged.stage (fun () -> ignore (Linform.axpy_shift (-0.7) a b 3.5)));
      Test.make ~name:"axpy_shift/unfused"
        (Staged.stage (fun () ->
             ignore (Linform.shift 3.5 (Linform.axpy (-0.7) a b))));
      Test.make ~name:"stat_min/soa"
        (Staged.stage (fun () -> ignore (Linform.stat_min a b)));
      Test.make ~name:"stat_min/ref"
        (Staged.stage (fun () -> ignore (Linform.Reference.stat_min ra rb)));
      Test.make ~name:"mul_first_order/soa"
        (Staged.stage (fun () -> ignore (Linform.mul_first_order a b)));
      Test.make ~name:"mul_first_order/ref"
        (Staged.stage (fun () -> ignore (Linform.Reference.mul_first_order ra rb)));
      Test.make ~name:"covariance/soa"
        (Staged.stage (fun () -> ignore (Linform.covariance a b)));
      Test.make ~name:"covariance/ref"
        (Staged.stage (fun () -> ignore (Linform.Reference.covariance ra rb)));
    ]

let bench_dp bench_name =
  let info = Rctree.Benchmarks.find bench_name in
  let tree = Rctree.Benchmarks.load info in
  let setup = Experiments.Common.default_setup in
  let grid =
    Experiments.Common.grid_for setup ~die_um:info.Rctree.Benchmarks.die_um
  in
  Staged.stage (fun () ->
      ignore
        (Experiments.Common.run_algo setup
           ~spatial:Varmodel.Model.default_heterogeneous ~grid
           Experiments.Common.Wid tree))

let micro_tests ~smoke =
  Test.make_grouped ~name:"varbuf"
    ([
       kernel_tests;
       (* Table 2 / Fig 5: the pruning rules' costs *)
       Test.make ~name:"prune/2P/n=100" (bench_prune (Bufins.Prune.two_param ()) 100);
       Test.make ~name:"prune/2P/n=1000"
         (bench_prune (Bufins.Prune.two_param ()) 1000);
       Test.make ~name:"prune/2P(0.9)/n=1000"
         (bench_prune (Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ()) 1000);
       Test.make ~name:"prune/4P/n=100" (bench_prune (Bufins.Prune.four_param ()) 100);
       (* Fig 1: linear merge *)
       Test.make ~name:"merge/2P/n=100" (bench_merge 100);
     ]
    @
    if smoke then []
    else
      [
        Test.make ~name:"prune/2P/n=10000"
          (bench_prune (Bufins.Prune.two_param ()) 10000);
        Test.make ~name:"prune/4P/n=1000"
          (bench_prune (Bufins.Prune.four_param ()) 1000);
        Test.make ~name:"prune/1P/n=1000"
          (bench_prune (Bufins.Prune.one_param ~alpha:0.95) 1000);
        Test.make ~name:"merge/2P/n=1000" (bench_merge 1000);
        (* end-to-end DP, one per benchmark size class (Table 2 rows) *)
        Test.make ~name:"dp/2P/p1" (bench_dp "p1");
        Test.make ~name:"dp/2P/r1" (bench_dp "r1");
      ])

(* Runs the micro suite and returns [(name, ns_per_run)] rows for the
   JSON report. *)
let run_micro ~smoke () =
  let instance = Instance.monotonic_clock in
  let cfg =
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ~smoke) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  print_endline "== Micro-benchmarks (bechamel, monotonic clock) ==";
  Printf.printf "%-34s %16s %8s\n" "benchmark" "ns/run" "r^2";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let json_rows = ref [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        json_rows := (name, est) :: !json_rows;
        Printf.printf "%-34s %16.1f %8s\n" name est
          (match Analyze.OLS.r_square result with
          | Some r2 -> Printf.sprintf "%.3f" r2
          | None -> "-")
      | _ -> Printf.printf "%-34s %16s\n" name "n/a")
    (List.sort compare rows);
  print_newline ();
  List.rev !json_rows

(* ---------- DP allocation probe ---------- *)

type dp_probe = {
  probe_sinks : int;
  allocated_bytes : float;
  peak_candidates : int;
  total_candidates : int;
  dp_runtime_s : float;
}

(* One full WID DP on the largest generated tree of the suite, with the
   allocation delta measured by [Gc.allocated_bytes]: the figure the
   SoA/array-frontier work is meant to push down, tracked per run in
   BENCH.json. *)
let run_dp_probe ~smoke () =
  let sinks = if smoke then 100 else 300 in
  let die = 8000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let grid =
    Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
      ~range_um:2000.0
  in
  let model =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let before = Gc.allocated_bytes () in
  let r = Bufins.Engine.run config ~model tree in
  let allocated = Gc.allocated_bytes () -. before in
  let s = r.Bufins.Engine.stats in
  Printf.printf
    "== DP allocation probe (%d sinks, WID) ==\n\
     allocated %.1f MB, peak %d candidates, total %d, %.3fs\n\n"
    sinks
    (allocated /. 1e6)
    s.Bufins.Engine.peak_candidates s.Bufins.Engine.total_candidates
    s.Bufins.Engine.runtime_s;
  {
    probe_sinks = sinks;
    allocated_bytes = allocated;
    peak_candidates = s.Bufins.Engine.peak_candidates;
    total_candidates = s.Bufins.Engine.total_candidates;
    dp_runtime_s = s.Bufins.Engine.runtime_s;
  }

(* ---------- parallel-DP scaling + arena probe ---------- *)

type par_dp = {
  par_sinks : int;
  par_jobs : int;
  par_grain : int;
  seq_s : float;
  par_s : float;
  par_identical : bool;
  arena_bytes : float;
  noarena_bytes : float;
}

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

(* The task-parallel DP on the suite's largest synthetic net: wall
   clock at jobs=1 vs jobs=N (best of a few runs — the DP is short
   enough to jitter), a structural identity check between the two, and
   the allocation saved by the arena (same sequential run with the
   arena disabled).  The model is consumed by a run (device-id
   counter), so every run gets a fresh one. *)
let run_par_dp ~smoke ~jobs () =
  let sinks = if smoke then 100 else 300 in
  let die = 8000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let grid =
    Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
      ~range_um:2000.0
  in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let grain = Bufins.Engine.default_grain in
  let repeats = if smoke then 1 else 3 in
  let timed ?pool () =
    let t0 = Unix.gettimeofday () in
    let r = Bufins.Engine.run ?pool ~grain config ~model:(model ()) tree in
    (Unix.gettimeofday () -. t0, r)
  in
  let best f =
    let acc = ref None in
    for _ = 1 to repeats do
      let t, r = f () in
      match !acc with
      | Some (bt, _) when bt <= t -> ()
      | _ -> acc := Some (t, r)
    done;
    Option.get !acc
  in
  let seq_s, seq_r = best (fun () -> timed ()) in
  let pool = Exec.Pool.create ~jobs () in
  let par_s, par_r =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> best (fun () -> timed ~pool ()))
  in
  let par_identical = strip_result par_r = strip_result seq_r in
  let alloc_run () =
    let before = Gc.allocated_bytes () in
    ignore (Bufins.Engine.run ~grain config ~model:(model ()) tree);
    Gc.allocated_bytes () -. before
  in
  let arena_bytes = alloc_run () in
  Bufins.Arena.enabled := false;
  let noarena_bytes =
    Fun.protect
      ~finally:(fun () -> Bufins.Arena.enabled := true)
      alloc_run
  in
  Printf.printf
    "== parallel DP (%d sinks, WID, grain %d) ==\n\
     jobs=1 %.3fs, jobs=%d %.3fs, speedup %.2fx, identical %b\n\
     arena on %.1f MB, arena off %.1f MB (saved %.1f%%)\n\n"
    sinks grain seq_s jobs par_s
    (seq_s /. Float.max par_s 1e-9)
    par_identical (arena_bytes /. 1e6) (noarena_bytes /. 1e6)
    (100.0 *. (1.0 -. (arena_bytes /. Float.max noarena_bytes 1.0)));
  if not par_identical then begin
    prerr_endline "FATAL: parallel DP diverged from sequential";
    exit 1
  end;
  {
    par_sinks = sinks;
    par_jobs = jobs;
    par_grain = grain;
    seq_s;
    par_s;
    par_identical;
    arena_bytes;
    noarena_bytes;
  }

(* ---------- sample engine: ns/op and frontier size vs K ---------- *)

type sample_row = {
  sm_k : int;
  sm_ns_per_op : float;
  sm_peak : int;
  sm_total : int;
}

type sample_report = {
  sm_sinks : int;
  sm_rows : sample_row list;
  sm_jobs_identical : bool;
  sm_obs_identical : bool;
}

let strip_sample (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

(* The sample-matrix DP on one WID net at K = 64/256/1024: per-run wall
   clock and frontier size (cost grows ~linearly in K; the frontier
   should grow slowly — per-sample dominance keeps pruning).  The same
   determinism contract as the canonical engine is asserted, fatally:
   jobs=1 vs jobs=N and obs off vs on must agree bit for bit. *)
let run_sample ~smoke ~jobs () =
  let sinks = if smoke then 30 else 60 in
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks ~die_um:die () in
  let grid =
    Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
      ~range_um:2000.0
  in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let repeats = if smoke then 1 else 3 in
  let timed ?pool ?grain k =
    let cfg = Sample.Engine.default_config ~samples:k () in
    let acc = ref None in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      let r = Sample.Engine.run ?pool ?grain cfg ~model:(model ()) tree in
      let t = Unix.gettimeofday () -. t0 in
      match !acc with
      | Some (bt, _) when bt <= t -> ()
      | _ -> acc := Some (t, r)
    done;
    Option.get !acc
  in
  Printf.printf "== sample engine (%d sinks, WID) ==\n" sinks;
  let rows =
    List.map
      (fun k ->
        let t, r = timed k in
        let s = r.Sample.Engine.stats in
        Printf.printf
          "K=%-5d %10.1f ms/run  peak %6d candidates  total %8d\n" k
          (t *. 1e3) s.Bufins.Engine.peak_candidates
          s.Bufins.Engine.total_candidates;
        {
          sm_k = k;
          sm_ns_per_op = t *. 1e9;
          sm_peak = s.Bufins.Engine.peak_candidates;
          sm_total = s.Bufins.Engine.total_candidates;
        })
      [ 64; 256; 1024 ]
  in
  let _, seq = timed 64 in
  let pool = Exec.Pool.create ~jobs () in
  let _, par =
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () -> timed ~pool ~grain:2 64)
  in
  let jobs_identical = strip_sample par = strip_sample seq in
  let with_obs enabled f =
    let was = Obs.Control.on () in
    if enabled then Obs.Control.enable () else Obs.Control.disable ();
    Fun.protect f ~finally:(fun () ->
        if was then Obs.Control.enable () else Obs.Control.disable ())
  in
  let off = with_obs false (fun () -> strip_sample (snd (timed 64))) in
  let on = with_obs true (fun () -> strip_sample (snd (timed 64))) in
  let obs_identical = off = on in
  Printf.printf "jobs=1 vs jobs=%d identical %b, obs on/off identical %b\n\n"
    jobs jobs_identical obs_identical;
  if not jobs_identical then begin
    prerr_endline "FATAL: parallel sample DP diverged from sequential";
    exit 1
  end;
  if not obs_identical then begin
    prerr_endline "FATAL: observability changed the sample engine's output";
    exit 1
  end;
  { sm_sinks = sinks; sm_rows = rows; sm_jobs_identical = jobs_identical;
    sm_obs_identical = obs_identical }

(* ---------- observability (--obs / --trace) ---------- *)

type obs_report = {
  obs_identical : bool;
  obs_counters : (string * int) list;
  (* per cat.name span totals: (label, count, total_ms) *)
  obs_phases : (string * int * float) list;
}

(* The observability layer must not change what the engine computes:
   the disabled path is a single branch, and the enabled path only
   reads.  Same tree and config twice, obs off then on; any structural
   difference between the two results is fatal. *)
let run_obs_identity () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:5 ~sinks:60 ~die_um:die () in
  let grid =
    Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
      ~range_um:2000.0
  in
  let model () =
    Varmodel.Model.create ~mode:Varmodel.Model.Wid
      ~spatial:Varmodel.Model.default_heterogeneous ~grid ()
  in
  let config = Bufins.Engine.default_config () in
  let run_with enabled =
    let was = Obs.Control.on () in
    if enabled then Obs.Control.enable () else Obs.Control.disable ();
    Fun.protect
      ~finally:(fun () ->
        if was then Obs.Control.enable () else Obs.Control.disable ())
      (fun () -> Bufins.Engine.run config ~model:(model ()) tree)
  in
  let off = run_with false in
  let on = run_with true in
  let identical = strip_result off = strip_result on in
  Printf.printf "== obs identity check ==\nenabled vs disabled identical: %b\n\n"
    identical;
  if not identical then begin
    prerr_endline "FATAL: enabling observability changed the engine's output";
    exit 1
  end;
  identical

(* Fold the span buffer into per-label (cat.name) phase totals for the
   JSON report. *)
let span_phase_totals () =
  Obs.Span.flush ();
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let label = s.Obs.Span.cat ^ "." ^ s.Obs.Span.name in
      let count, total_ns =
        Option.value (Hashtbl.find_opt tbl label) ~default:(0, 0)
      in
      Hashtbl.replace tbl label (count + 1, total_ns + s.Obs.Span.dur_ns))
    (Obs.Span.snapshot ());
  Hashtbl.fold
    (fun label (count, total_ns) acc ->
      (label, count, float_of_int total_ns /. 1e6) :: acc)
    tbl []
  |> List.sort compare

let collect_obs_report () =
  let obs_identical = run_obs_identity () in
  {
    obs_identical;
    obs_counters = Obs.Counters.counter_values Obs.Counters.global;
    obs_phases = span_phase_totals ();
  }

(* ---------- cluster: routed throughput and the v2 codec ---------- *)

type cluster_report = {
  cl_requests : int;
  cl_clients : int;
  cl_shards : int;
  cl_single_rps : float;
  cl_single_p50 : float;
  cl_single_p95 : float;
  cl_sharded_rps : float;
  cl_sharded_p50 : float;
  cl_sharded_p95 : float;
  cl_codec : (string * float) list;  (* name, ns/op *)
}

(* Closed-loop loopback throughput: a plain single daemon (one event
   loop, one pool) vs the 3-shard in-process cluster (router + three
   workers), same total request stream, caches off so every request
   pays the optimiser.  On a multi-core host the sharded row should
   approach [shards]× the single row; on one core it shows the
   router's forwarding overhead instead — both are honest, so the
   ratio is recorded, never gated on. *)
let run_cluster ~smoke () =
  let sinks = 40 and distinct = 12 in
  let trees =
    Array.init distinct (fun i ->
        Rctree.Generate.random_steiner ~seed:(40 + i) ~sinks ~die_um:4000.0 ())
  in
  let reqs = Array.map (fun tree -> Serve.Protocol.default_request ~tree) trees in
  let n = if smoke then 24 else 120 in
  let clients = 4 in
  let drive socket =
    let next = Atomic.make 0 in
    let worker () =
      let c = Serve.Client.connect ~wire:Serve.Wire.V2 socket in
      let lats = ref [] in
      let rec go () =
        let k = Atomic.fetch_and_add next 1 in
        if k < n then begin
          let t0 = Unix.gettimeofday () in
          (match Serve.Client.request c
                   { reqs.(k mod distinct) with Serve.Protocol.id = k }
           with
          | Ok _ -> lats := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !lats
          | Error e -> failwith e.Serve.Protocol.message);
          go ()
        end
      in
      go ();
      Serve.Client.close c;
      !lats
    in
    let t0 = Unix.gettimeofday () in
    let ds = List.init clients (fun _ -> Domain.spawn worker) in
    let lats = Array.of_list (List.concat_map Domain.join ds) in
    let elapsed = Unix.gettimeofday () -. t0 in
    ( float_of_int (Array.length lats) /. elapsed,
      Numeric.Stats.percentile lats 0.5,
      Numeric.Stats.percentile lats 0.95 )
  in
  (* Single daemon, router-less. *)
  let single_socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "varbuf-bench-single-%d.sock" (Unix.getpid ()))
  in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run
          ~should_stop:(fun () -> Atomic.get stop)
          { (Serve.Server.default_config ~socket_path:single_socket) with
            Serve.Server.jobs = 2;
            cache_entries = 0 })
  in
  let rec wait tries =
    if Sys.file_exists single_socket then ()
    else if tries = 0 then failwith "bench server did not bind"
    else (Unix.sleepf 0.02; wait (tries - 1))
  in
  wait 250;
  let single_rps, single_p50, single_p95 =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true; Domain.join server)
      (fun () -> drive single_socket)
  in
  (* The 3-shard cluster, same per-worker resources. *)
  let shards = 3 in
  let sharded_rps, sharded_p50, sharded_p95 =
    Cluster.Inproc.with_cluster ~shards ~jobs_per_shard:2 ~cache_entries:0
      ~conns_per_shard:clients drive
  in
  (* v1 text vs v2 binary codec, ns/op on a representative request and
     response. *)
  let req = { reqs.(0) with Serve.Protocol.id = 1 } in
  let resp = Serve.Handler.run req in
  let per_op f =
    let reps = if smoke then 300 else 3000 in
    for _ = 1 to 20 do ignore (f ()) done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do ignore (f ()) done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9
  in
  let req_v1 = Serve.Protocol.encode_request req in
  let req_v2 = Serve.Codec_bin.encode_request req in
  let resp_v1 = Serve.Protocol.encode_response resp in
  let resp_v2 = Serve.Codec_bin.encode_response resp in
  let codec =
    [
      ("request_encode_v1", per_op (fun () -> Serve.Protocol.encode_request req));
      ("request_encode_v2", per_op (fun () -> Serve.Codec_bin.encode_request req));
      ("request_decode_v1", per_op (fun () -> Serve.Protocol.decode_request req_v1));
      ("request_decode_v2", per_op (fun () -> Serve.Codec_bin.decode_request req_v2));
      ("response_encode_v1", per_op (fun () -> Serve.Protocol.encode_response resp));
      ("response_encode_v2", per_op (fun () -> Serve.Codec_bin.encode_response resp));
      ("response_decode_v1", per_op (fun () -> Serve.Protocol.decode_response resp_v1));
      ("response_decode_v2", per_op (fun () -> Serve.Codec_bin.decode_response resp_v2));
    ]
  in
  Printf.printf "== Cluster loopback (%d-sink nets, %d clients, caches off) ==\n"
    sinks clients;
  Printf.printf "%-24s %8.1f req/s  p50 %7.1f ms  p95 %7.1f ms\n"
    "single daemon" single_rps single_p50 single_p95;
  Printf.printf "%-24s %8.1f req/s  p50 %7.1f ms  p95 %7.1f ms  (%.2fx)\n"
    (Printf.sprintf "%d-shard cluster" shards)
    sharded_rps sharded_p50 sharded_p95
    (sharded_rps /. Float.max single_rps 1e-9);
  List.iter
    (fun (name, ns) -> Printf.printf "codec %-22s %10.0f ns/op\n" name ns)
    codec;
  Printf.printf "v2/v1 size: request %d/%d bytes, response %d/%d bytes\n\n"
    (String.length req_v2) (String.length req_v1)
    (String.length resp_v2) (String.length resp_v1);
  {
    cl_requests = n;
    cl_clients = clients;
    cl_shards = shards;
    cl_single_rps = single_rps;
    cl_single_p50 = single_p50;
    cl_single_p95 = single_p95;
    cl_sharded_rps = sharded_rps;
    cl_sharded_p50 = sharded_p50;
    cl_sharded_p95 = sharded_p95;
    cl_codec = codec;
  }

(* ---------- compiled-tape: cold vs warm ---------- *)

type tape_row = {
  tp_name : string;
  tp_sinks : int;
  tp_cold_ns : float;
  tp_warm_ns : float;
}

(* Table-1 nets r1..r5 through the same WID/2P DP two ways: a cold
   tape (compile then execute, what [run] does) and a warm tape
   (execute a precompiled tape — the serving cluster's tape-cache-hit
   path).  The difference is the compile cost the tape cache saves.
   The model is rebuilt inside [run_algo] on every call, so each timed
   run consumes a fresh device-id stream. *)
let run_tape_bench ~smoke () =
  let setup = Experiments.Common.default_setup in
  let reps = if smoke then 4 else 5 in
  let rows =
    List.map
      (fun name ->
        let info = Rctree.Benchmarks.find name in
        let tree = Rctree.Benchmarks.load info in
        let grid =
          Experiments.Common.grid_for setup
            ~die_um:info.Rctree.Benchmarks.die_um
        in
        let spatial = Varmodel.Model.default_heterogeneous in
        let run ?tape () =
          Experiments.Common.run_algo setup ?tape ~spatial ~grid
            Experiments.Common.Wid tree
        in
        let tape = Compile.Tape.compile tree in
        ignore (run ~tape ());
        (* Interleaved best-of rounds with the GC drained before every
           measurement: a DP run allocates ~1000x the frontier it keeps,
           so major-collection cycles straddling run boundaries would
           otherwise attribute collection cost to whichever path runs
           next. *)
        let time f =
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0
        in
        let warm_ns = ref infinity and cold_ns = ref infinity in
        for _ = 1 to reps do
          warm_ns := Float.min !warm_ns (time (fun () -> run ~tape ()));
          cold_ns := Float.min !cold_ns (time (fun () -> run ()))
        done;
        {
          tp_name = name;
          tp_sinks = info.Rctree.Benchmarks.sinks;
          tp_cold_ns = !cold_ns *. 1e9;
          tp_warm_ns = !warm_ns *. 1e9;
        })
      [ "r1"; "r2"; "r3"; "r4"; "r5" ]
  in
  Printf.printf "== compiled tape (WID/2P, best of %d) ==\n" reps;
  Printf.printf "%-4s %6s %12s %12s %9s\n" "net" "sinks" "cold ns/op"
    "warm ns/op" "warm/cold";
  List.iter
    (fun r ->
      Printf.printf "%-4s %6d %12.0f %12.0f %9.2f\n" r.tp_name r.tp_sinks
        r.tp_cold_ns r.tp_warm_ns
        (r.tp_warm_ns /. Float.max r.tp_cold_ns 1.0))
    rows;
  print_newline ();
  rows

(* ---------- buffer-library size: frontier growth + identity gates ---------- *)

type btypes_row = {
  bt_b : int;
  bt_net : string;
  bt_ns_per_op : float;
  bt_peak : int;
  bt_total : int;
  bt_buffers : int;
  bt_inverters : int;
}

type btypes_report = {
  bt_rows : btypes_row list;
  bt_identity_b1 : bool;
  bt_peak_ratio : float;  (* worst peak(b=8)/peak(b=1) across nets *)
}

(* The WID DP across library sizes b = 1..16 on the Table-1 nets:
   ns/op, candidate counts and the chosen type mix.  Two gates, both
   fatal:

   - at b = 1 (the historical repeater library) [Convex_auto] must be
     byte-identical to the [Exhaustive] per-type scan — the convex
     insertion step is an optimisation, never a semantics change;
   - the peak frontier at b = 8 must stay under 4x the b = 1 peak on
     every net — the empirical form of the O(bn^2) claim (candidate
     generation is linear in b, the pruned frontier nearly flat). *)
let run_btypes ~smoke () =
  let setup = Experiments.Common.default_setup in
  let nets = if smoke then [ "r1"; "r2" ] else [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
  let bs = [ 1; 2; 4; 8; 16 ] in
  let reps = if smoke then 1 else 3 in
  let spatial = Varmodel.Model.default_heterogeneous in
  let identity_b1 =
    let info = Rctree.Benchmarks.find "r1" in
    let tree = Rctree.Benchmarks.load info in
    let grid =
      Experiments.Common.grid_for setup ~die_um:info.Rctree.Benchmarks.die_um
    in
    let model () =
      Varmodel.Model.create ~mode:Varmodel.Model.Wid ~spatial ~grid ()
    in
    let run insertion =
      strip_result
        (Bufins.Engine.run
           { (Bufins.Engine.default_config ()) with Bufins.Engine.insertion }
           ~model:(model ()) tree)
    in
    run Bufins.Engine.Convex_auto = run Bufins.Engine.Exhaustive
  in
  let rows =
    List.concat_map
      (fun net ->
        let info = Rctree.Benchmarks.find net in
        let tree = Rctree.Benchmarks.load info in
        let grid =
          Experiments.Common.grid_for setup
            ~die_um:info.Rctree.Benchmarks.die_um
        in
        List.map
          (fun b ->
            let setup =
              { setup with
                Experiments.Common.library = Device.Buffer.synth_library ~btypes:b }
            in
            let best = ref None in
            for _ = 1 to reps do
              let t0 = Unix.gettimeofday () in
              let r =
                Experiments.Common.run_algo setup ~spatial ~grid
                  Experiments.Common.Wid tree
              in
              let t = Unix.gettimeofday () -. t0 in
              match !best with
              | Some (bt, _) when bt <= t -> ()
              | _ -> best := Some (t, r)
            done;
            let t, r = Option.get !best in
            let s = r.Bufins.Engine.stats in
            {
              bt_b = b;
              bt_net = net;
              bt_ns_per_op = t *. 1e9;
              bt_peak = s.Bufins.Engine.peak_candidates;
              bt_total = s.Bufins.Engine.total_candidates;
              bt_buffers = List.length r.Bufins.Engine.buffers;
              bt_inverters =
                List.length
                  (List.filter
                     (fun (_, d) -> Device.Buffer.is_inverting d)
                     r.Bufins.Engine.buffers);
            })
          bs)
      nets
  in
  let peak net b =
    (List.find (fun r -> r.bt_net = net && r.bt_b = b) rows).bt_peak
  in
  let peak_ratio =
    List.fold_left
      (fun acc net ->
        Float.max acc
          (float_of_int (peak net 8) /. float_of_int (max 1 (peak net 1))))
      0.0 nets
  in
  Printf.printf "== buffer-library size (WID/2P, best of %d) ==\n" reps;
  Printf.printf "%-4s %4s %12s %8s %10s %8s %5s\n" "net" "b" "ns/op" "peak"
    "total" "buffers" "inv";
  List.iter
    (fun r ->
      Printf.printf "%-4s %4d %12.0f %8d %10d %8d %5d\n" r.bt_net r.bt_b
        r.bt_ns_per_op r.bt_peak r.bt_total r.bt_buffers r.bt_inverters)
    rows;
  Printf.printf
    "b=1 convex = exhaustive: %b, worst peak(b=8)/peak(b=1): %.2f\n\n"
    identity_b1 peak_ratio;
  if not identity_b1 then begin
    prerr_endline
      "FATAL: convex insertion diverged from exhaustive at b=1";
    exit 1
  end;
  if peak_ratio >= 4.0 then begin
    Printf.eprintf
      "FATAL: peak frontier grew %.2fx from b=1 to b=8 (gate: < 4x)\n"
      peak_ratio;
    exit 1
  end;
  { bt_rows = rows; bt_identity_b1 = identity_b1; bt_peak_ratio = peak_ratio }

(* ---------- power-aware Pareto frontier: size and cost vs ε ---------- *)

type pareto_row = {
  pa_net : string;
  pa_eps : float;
  pa_ns_per_op : float;
  pa_peak : int;
  pa_total : int;
  pa_power_fj : float;
}

type pareto_report = {
  pa_rows : pareto_row list;
  pa_identity_eps0 : bool;
}

(* The power-aware (load, RAT, power) Pareto DP across ε ∈ {0, 1e-3,
   1e-2} on the Table-1 nets: ns/op, frontier sizes and the chosen
   tree's buffer energy, under the [Weighted 1.0] objective.  One
   gate, fatal: with every per-type energy forced to zero,
   [Weighted 0.0] at ε = 0 must be byte-identical to the total-order
   ([Max_yield]) engine — a constant power axis makes the Pareto
   comparator the historical order, so any divergence is a dominance
   bug, not noise. *)
let run_pareto ~smoke () =
  let setup = Experiments.Common.default_setup in
  let nets = if smoke then [ "r1"; "r2" ] else [ "r1"; "r2"; "r3"; "r4"; "r5" ] in
  let epss = [ 0.0; 1e-3; 1e-2 ] in
  let reps = if smoke then 1 else 3 in
  let spatial = Varmodel.Model.default_heterogeneous in
  let identity_eps0 =
    let info = Rctree.Benchmarks.find "r1" in
    let tree = Rctree.Benchmarks.load info in
    let grid =
      Experiments.Common.grid_for setup ~die_um:info.Rctree.Benchmarks.die_um
    in
    let model () =
      Varmodel.Model.create ~mode:Varmodel.Model.Wid ~spatial ~grid ()
    in
    let config = Bufins.Engine.default_config () in
    let zeros = Array.make (Array.length config.Bufins.Engine.library) 0.0 in
    (* Zero energies on BOTH sides: the total-order engine still
       carries (never compares) the power annotation, so matching
       bytes needs matching energies, not just a zero weight. *)
    let config = { config with Bufins.Engine.energies = Some zeros } in
    let run config = strip_result (Bufins.Engine.run config ~model:(model ()) tree) in
    run
      { config with
        Bufins.Engine.power_objective = Bufins.Dominance.Weighted 0.0;
        eps_power = 0.0 }
    = run config
  in
  let rows =
    List.concat_map
      (fun net ->
        let info = Rctree.Benchmarks.find net in
        let tree = Rctree.Benchmarks.load info in
        let grid =
          Experiments.Common.grid_for setup
            ~die_um:info.Rctree.Benchmarks.die_um
        in
        List.map
          (fun eps ->
            let best = ref None in
            for _ = 1 to reps do
              let t0 = Unix.gettimeofday () in
              let r =
                Experiments.Common.run_algo setup
                  ~objective:(Bufins.Dominance.Weighted 1.0) ~eps_power:eps
                  ~spatial ~grid Experiments.Common.Wid tree
              in
              let t = Unix.gettimeofday () -. t0 in
              match !best with
              | Some (bt, _) when bt <= t -> ()
              | _ -> best := Some (t, r)
            done;
            let t, r = Option.get !best in
            let s = r.Bufins.Engine.stats in
            {
              pa_net = net;
              pa_eps = eps;
              pa_ns_per_op = t *. 1e9;
              pa_peak = s.Bufins.Engine.peak_candidates;
              pa_total = s.Bufins.Engine.total_candidates;
              pa_power_fj = r.Bufins.Engine.best.Bufins.Sol.power;
            })
          epss)
      nets
  in
  Printf.printf "== power-aware Pareto frontier (WID/2P, weighted=1, best of %d) ==\n"
    reps;
  Printf.printf "%-4s %8s %12s %8s %10s %10s\n" "net" "eps" "ns/op" "peak"
    "total" "power fJ";
  List.iter
    (fun r ->
      Printf.printf "%-4s %8g %12.0f %8d %10d %10.2f\n" r.pa_net r.pa_eps
        r.pa_ns_per_op r.pa_peak r.pa_total r.pa_power_fj)
    rows;
  Printf.printf "eps=0 zero-energy weighted = total-order engine: %b\n\n"
    identity_eps0;
  if not identity_eps0 then begin
    prerr_endline
      "FATAL: zero-energy Pareto prune diverged from the total-order engine";
    exit 1
  end;
  { pa_rows = rows; pa_identity_eps0 = identity_eps0 }

(* ---------- BENCH.json (hand-rolled writer; no JSON dependency) ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float x =
  (* %.17g roundtrips; JSON has no infinities, clamp defensively. *)
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* The btypes object, shared between the full report and the
   [--btypes-only] mini report the CI matrix leg uploads. *)
let add_btypes_section buf btypes =
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"btypes\": {\"identity_b1\": %b, \"peak_ratio_b8_b1\": %s, \
        \"rows\": [\n"
       btypes.bt_identity_b1
       (json_float btypes.bt_peak_ratio));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"net\": \"%s\", \"b\": %d, \"ns_per_op\": %s, \
            \"peak_candidates\": %d, \"total_candidates\": %d, \"buffers\": \
            %d, \"inverters\": %d}%s\n"
           (json_escape r.bt_net) r.bt_b
           (json_float r.bt_ns_per_op)
           r.bt_peak r.bt_total r.bt_buffers r.bt_inverters
           (if i = List.length btypes.bt_rows - 1 then "" else ",")))
    btypes.bt_rows;
  Buffer.add_string buf "  ]}"

(* The pareto object, shared between the full report and the
   [--pareto-only] mini report the CI matrix leg uploads. *)
let add_pareto_section buf pareto =
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"pareto\": {\"identity_eps0\": %b, \"rows\": [\n"
       pareto.pa_identity_eps0);
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"net\": \"%s\", \"eps\": %s, \"ns_per_op\": %s, \
            \"peak_candidates\": %d, \"total_candidates\": %d, \
            \"power_fj\": %s}%s\n"
           (json_escape r.pa_net) (json_float r.pa_eps)
           (json_float r.pa_ns_per_op)
           r.pa_peak r.pa_total
           (json_float r.pa_power_fj)
           (if i = List.length pareto.pa_rows - 1 then "" else ",")))
    pareto.pa_rows;
  Buffer.add_string buf "  ]}"

let write_pareto_json ~path ~smoke ~pareto =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"varbuf-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b" smoke);
  add_pareto_section buf pareto;
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n\n" path

let write_btypes_json ~path ~smoke ~btypes =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"varbuf-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b" smoke);
  add_btypes_section buf btypes;
  Buffer.add_string buf "\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n\n" path

let write_bench_json ~path ~smoke ~micro ~probe ~par ~sample ~tape ~btypes
    ~pareto ~cluster ~obs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"varbuf-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n"
           (json_escape name) (json_float ns)
           (if i = List.length micro - 1 then "" else ",")))
    micro;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"dp_probe\": {\"sinks\": %d, \"allocated_bytes\": %s, \
        \"peak_candidates\": %d, \"total_candidates\": %d, \"runtime_s\": \
        %s},\n"
       probe.probe_sinks
       (json_float probe.allocated_bytes)
       probe.peak_candidates probe.total_candidates
       (json_float probe.dp_runtime_s));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"par_dp\": {\"sinks\": %d, \"jobs\": %d, \"grain\": %d, \
        \"seq_ns_per_op\": %s, \"par_ns_per_op\": %s, \"speedup\": %s, \
        \"identical\": %b, \"arena_allocated_bytes\": %s, \
        \"noarena_allocated_bytes\": %s}"
       par.par_sinks par.par_jobs par.par_grain
       (json_float (par.seq_s *. 1e9))
       (json_float (par.par_s *. 1e9))
       (json_float (par.seq_s /. Float.max par.par_s 1e-9))
       par.par_identical
       (json_float par.arena_bytes)
       (json_float par.noarena_bytes));
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"sample\": {\"sinks\": %d, \"jobs_identical\": %b, \
        \"obs_identical\": %b, \"rows\": [\n"
       sample.sm_sinks sample.sm_jobs_identical sample.sm_obs_identical);
  List.iteri
    (fun i row ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"k\": %d, \"ns_per_op\": %s, \"peak_candidates\": %d, \
            \"total_candidates\": %d}%s\n"
           row.sm_k (json_float row.sm_ns_per_op) row.sm_peak row.sm_total
           (if i = List.length sample.sm_rows - 1 then "" else ",")))
    sample.sm_rows;
  Buffer.add_string buf "  ]}";
  Buffer.add_string buf ",\n  \"tape\": {\"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"sinks\": %d, \"cold_ns_per_op\": %s, \
            \"warm_ns_per_op\": %s}%s\n"
           (json_escape r.tp_name) r.tp_sinks (json_float r.tp_cold_ns)
           (json_float r.tp_warm_ns)
           (if i = List.length tape - 1 then "" else ",")))
    tape;
  Buffer.add_string buf "  ]}";
  add_btypes_section buf btypes;
  add_pareto_section buf pareto;
  Buffer.add_string buf
    (Printf.sprintf
       ",\n  \"cluster\": {\"requests\": %d, \"clients\": %d, \"shards\": %d, \
        \"single_rps\": %s, \"single_p50_ms\": %s, \"single_p95_ms\": %s, \
        \"sharded_rps\": %s, \"sharded_p50_ms\": %s, \"sharded_p95_ms\": %s, \
        \"speedup\": %s,\n    \"codec\": [\n"
       cluster.cl_requests cluster.cl_clients cluster.cl_shards
       (json_float cluster.cl_single_rps)
       (json_float cluster.cl_single_p50)
       (json_float cluster.cl_single_p95)
       (json_float cluster.cl_sharded_rps)
       (json_float cluster.cl_sharded_p50)
       (json_float cluster.cl_sharded_p95)
       (json_float
          (cluster.cl_sharded_rps /. Float.max cluster.cl_single_rps 1e-9)));
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "      {\"name\": \"%s\", \"ns_per_op\": %s}%s\n"
           (json_escape name) (json_float ns)
           (if i = List.length cluster.cl_codec - 1 then "" else ",")))
    cluster.cl_codec;
  Buffer.add_string buf "    ]\n  }";
  (match obs with
  | None -> Buffer.add_string buf "\n"
  | Some o ->
    Buffer.add_string buf ",\n  \"obs\": {\n";
    Buffer.add_string buf
      (Printf.sprintf "    \"enabled\": true,\n    \"identical\": %b,\n"
         o.obs_identical);
    Buffer.add_string buf "    \"counters\": [\n";
    List.iteri
      (fun i (name, v) ->
        Buffer.add_string buf
          (Printf.sprintf "      {\"name\": \"%s\", \"value\": %d}%s\n"
             (json_escape name) v
             (if i = List.length o.obs_counters - 1 then "" else ",")))
      o.obs_counters;
    Buffer.add_string buf "    ],\n    \"phases\": [\n";
    List.iteri
      (fun i (label, count, total_ms) ->
        Buffer.add_string buf
          (Printf.sprintf
             "      {\"name\": \"%s\", \"count\": %d, \"total_ms\": %s}%s\n"
             (json_escape label) count (json_float total_ms)
             (if i = List.length o.obs_phases - 1 then "" else ",")))
      o.obs_phases;
    Buffer.add_string buf "    ]\n  }\n");
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n\n" path

let pp_pool_stats pool =
  let s = Exec.Pool.stats pool in
  Printf.printf
    "pool: %d workers, %d tasks, %.3fs total task time, %.3fs max task\n"
    s.Exec.Pool.workers s.Exec.Pool.tasks_run s.Exec.Pool.total_task_s
    s.Exec.Pool.max_task_s

(* The acceptance benchmark for the exec subsystem: one fixed WID
   buffering of r3, 2000 MC trials, sequential vs pool.  The sample
   arrays must match exactly (chunk-keyed RNG streams) while the
   wall-clock drops with the job count. *)
let run_mc_speedup ~jobs () =
  let trials = 2000 and seed = 11 in
  let setup = Experiments.Common.default_setup in
  let info = Rctree.Benchmarks.find "r3" in
  let tree = Rctree.Benchmarks.load info in
  let grid = Experiments.Common.grid_for setup ~die_um:info.Rctree.Benchmarks.die_um in
  let spatial = Varmodel.Model.default_heterogeneous in
  let wid = Experiments.Common.run_algo setup ~spatial ~grid Experiments.Common.Wid tree in
  let inst =
    Experiments.Common.instance_for setup ~spatial ~grid tree wid.Bufins.Engine.buffers
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let mc ?pool () =
    Sta.Buffered.monte_carlo ?pool inst ~rng:(Numeric.Rng.create ~seed) ~trials
  in
  let seq, t_seq = time (fun () -> mc ()) in
  Printf.printf "== Monte-Carlo scaling (r3, %d trials) ==\n" trials;
  Printf.printf "%-24s %10.3fs\n" "sequential" t_seq;
  Exec.Pool.with_pool ~jobs (fun pool ->
      let par, t_par = time (fun () -> mc ~pool ()) in
      Printf.printf "%-24s %10.3fs  (speedup %.2fx, bit-identical: %b)\n"
        (Printf.sprintf "pool --jobs %d" jobs)
        t_par (t_seq /. t_par) (seq = par);
      pp_pool_stats pool);
  print_newline ()

(* Loopback throughput/latency of the varbuf-serve daemon: an
   in-process server on a temp socket sharing one explicit Exec.Pool,
   measured at one client and at N concurrent client domains.  The
   interesting comparison is the N-client row against the 1-client
   row: requests overlap on the pool's workers, so with --jobs > 1
   aggregate req/s should rise while per-request p50 stays near the
   single-client value.  (On a single-core host the N-client row
   instead shows fair time-sharing: flat req/s and roughly N× the
   per-request p50.) *)
let run_serve ~jobs () =
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "varbuf-bench-%d.sock" (Unix.getpid ()))
  in
  let tree = Rctree.Generate.random_steiner ~seed:3 ~sinks:60 ~die_um:4000.0 () in
  let req = Serve.Protocol.default_request ~tree in
  let pool = Exec.Pool.create ~jobs () in
  let metrics = Serve.Metrics.create () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Serve.Server.run ~pool ~metrics
          ~should_stop:(fun () -> Atomic.get stop)
          { (Serve.Server.default_config ~socket_path) with Serve.Server.jobs })
  in
  let rec connect tries =
    match Serve.Client.connect socket_path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  (* One connection issuing [n] sequential requests; per-request
     latencies in ms. *)
  let client_run n =
    let c = connect 250 in
    let lats =
      Array.init n (fun _ ->
          let t0 = Unix.gettimeofday () in
          match Serve.Client.request c req with
          | Ok _ -> (Unix.gettimeofday () -. t0) *. 1000.0
          | Error e -> failwith e.Serve.Protocol.message)
    in
    Serve.Client.close c;
    lats
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  ignore (client_run 2) (* warmup *);
  Printf.printf "== Serve loopback (60-sink net, --jobs %d) ==\n" jobs;
  let report label lats t_wall =
    Printf.printf "%-24s %4d req %8.1f req/s  p50 %7.1f ms  p95 %7.1f ms\n"
      label (Array.length lats)
      (float_of_int (Array.length lats) /. t_wall)
      (Numeric.Stats.percentile lats 0.5)
      (Numeric.Stats.percentile lats 0.95)
  in
  let lats, t1 = time (fun () -> client_run 20) in
  report "1 client" lats t1;
  let clients = max 2 jobs in
  let lats_n, t_n =
    time (fun () ->
        let ds =
          List.init clients (fun _ -> Domain.spawn (fun () -> client_run 10))
        in
        Array.concat (List.map Domain.join ds))
  in
  report (Printf.sprintf "%d clients" clients) lats_n t_n;
  (* Drain the server, then report its and the pool's view. *)
  let c = connect 10 in
  Serve.Client.shutdown c;
  Serve.Client.close c;
  Domain.join server;
  String.split_on_char '\n' (Serve.Metrics.render metrics)
  |> List.iter (fun line ->
         let bucket = "latency_ms_bucket" in
         let is_bucket =
           String.length line >= String.length bucket
           && String.sub line 0 (String.length bucket) = bucket
         in
         if line <> "" && not is_bucket then Printf.printf "server: %s\n" line);
  pp_pool_stats pool;
  Exec.Pool.shutdown pool;
  print_newline ()

let run_tables ~pool () =
  let setup = { Experiments.Common.default_setup with Experiments.Common.pool } in
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      e.Experiments.Registry.exec Format.std_formatter setup;
      Format.printf "@.";
      (* Return the previous experiment's high-water heap to the OS so
         the memory-hungry stages (table2's 4P, the level-8 H-tree)
         don't stack. *)
      Gc.compact ())
    Experiments.Registry.all;
  Option.iter pp_pool_stats pool

let () =
  let args = Array.to_list Sys.argv in
  let find_value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let jobs =
    max 1
      (Option.value
         (Option.bind (find_value "--jobs") int_of_string_opt)
         ~default:(Exec.Pool.default_jobs ()))
  in
  let only p = List.mem p args in
  let smoke = only "--smoke" in
  let json_path = Option.value (find_value "--bench-json") ~default:"BENCH.json" in
  let trace_path = find_value "--trace" in
  let obs_on = only "--obs" || trace_path <> None in
  if obs_on then Obs.Control.enable ();
  let all =
    (not smoke)
    && not
         (only "--micro-only" || only "--mc-only" || only "--serve-only"
         || only "--tables-only" || only "--btypes-only"
         || only "--pareto-only")
  in
  if only "--btypes-only" then begin
    let btypes = run_btypes ~smoke () in
    write_btypes_json ~path:json_path ~smoke ~btypes
  end;
  if only "--pareto-only" then begin
    let pareto = run_pareto ~smoke () in
    write_pareto_json ~path:json_path ~smoke ~pareto
  end;
  if
    (all || smoke || only "--micro-only")
    && not (only "--btypes-only" || only "--pareto-only")
  then begin
    let micro = run_micro ~smoke () in
    let probe = run_dp_probe ~smoke () in
    let par = run_par_dp ~smoke ~jobs () in
    let sample = run_sample ~smoke ~jobs () in
    let tape = run_tape_bench ~smoke () in
    let btypes = run_btypes ~smoke () in
    let pareto = run_pareto ~smoke () in
    let cluster = run_cluster ~smoke () in
    let obs = if obs_on then Some (collect_obs_report ()) else None in
    write_bench_json ~path:json_path ~smoke ~micro ~probe ~par ~sample ~tape
      ~btypes ~pareto ~cluster ~obs
  end;
  if all || only "--mc-only" then run_mc_speedup ~jobs ();
  if all || only "--serve-only" then run_serve ~jobs ();
  if all || only "--tables-only" then begin
    let pool = if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None in
    run_tables ~pool ();
    Option.iter Exec.Pool.shutdown pool
  end;
  Option.iter
    (fun path ->
      Obs.Span.flush ();
      Obs.Export.write_chrome ~path (Obs.Span.snapshot ());
      Printf.printf "trace written to %s\n" path)
    trace_path
