(* The two in-process engine workloads.

   dp-table1: the seven Table-1 nets, each through Compile.Tape.compile,
   Bufins.Engine.run_tape (WID, 2P(0.5, 0.5), default 3-type library)
   and Experiments.Common.evaluate.

   sample-k256: a pool of 30-sink random Steiner nets (seeds 1..12, on
   a 4000 um die), each through Compile.Tape.compile and
   Sample.Engine.run_tape at K = 256 with exact dominance (relax 1).

   A pass runs every net of the workload once, starting at net
   (seed mod n); each result is checked against the references in
   refs/<workload>.ref. *)

open Harness

type net = { name : string; sinks : int; tree : Rctree.Tree.t; grid : Varmodel.Grid.t }

type kind = Dp | Sampled

let setup = Experiments.Common.default_setup
let spatial = Varmodel.Model.default_heterogeneous
let sample_pool = 12
let sample_k = 256
let sample_die = 4000.0

let make_net ~name ~sinks ~die tree =
  { name; sinks; tree; grid = Experiments.Common.grid_for setup ~die_um:die }

let nets = function
  | Dp ->
    List.map
      (fun (i : Rctree.Benchmarks.info) ->
        make_net ~name:i.name ~sinks:i.sinks ~die:i.die_um (Rctree.Benchmarks.load i))
      Rctree.Benchmarks.all
  | Sampled ->
    List.init sample_pool (fun i ->
        let seed = i + 1 in
        make_net ~name:(Printf.sprintf "s%d" seed) ~sinks:30 ~die:sample_die
          (Rctree.Generate.random_steiner ~seed ~sinks:30 ~die_um:sample_die ()))

let workload_name = function Dp -> "dp-table1" | Sampled -> "sample-k256"
let ref_path kind = Filename.concat "varbench/refs" (workload_name kind ^ ".ref")

let model net =
  Varmodel.Model.create ~mode:Varmodel.Model.Wid ~budget:setup.budget ~spatial
    ~grid:net.grid ()

let dp_config =
  {
    (Bufins.Engine.default_config ~rule:(Bufins.Prune.two_param ~p_l:0.5 ~p_t:0.5 ()) ())
    with
    Bufins.Engine.tech = setup.tech;
    library = setup.library;
  }

let sample_config =
  {
    (Sample.Engine.default_config ~samples:sample_k ~seed:1 ~relax:1.0 ()) with
    Sample.Engine.tech = setup.tech;
    library = setup.library;
  }

(* What one net's run is checked on: root mean, std and yield RAT,
   and a digest of the chosen buffer assignment. *)
let summary ~mean ~std ~yield_rat ~buffers ~widths =
  Printf.sprintf "%.17g %.17g %.17g %s" mean std yield_rat
    (Digest.to_hex
       (Digest.string (Bufins.Assignment.to_string { Bufins.Assignment.buffers; widths })))

type op_result = {
  line : string;  (** the checked summary *)
  peak : int;
  total : int;
  ops : int;  (** tape length *)
  t_compile : float;
  t_dp : float;
  t_eval : float;
}

let run_op kind ~parent ~req net =
  let tape, t_compile =
    timed ~parent ~req "compile.tape" (fun _ -> Compile.Tape.compile net.tree)
  in
  let ops = Compile.Tape.op_count tape in
  match kind with
  | Dp ->
    let r, t_dp =
      timed ~parent ~req "bufins.run_tape" (fun _ ->
          Bufins.Engine.run_tape dp_config ~model:(model net) tape)
    in
    let rat, t_eval =
      timed ~parent ~req "sta.evaluate" (fun _ ->
          Experiments.Common.evaluate setup ~spatial ~grid:net.grid net.tree
            ~widths:r.widths r.buffers)
    in
    {
      line =
        summary ~mean:(Linform.mean rat) ~std:(Linform.std rat)
          ~yield_rat:(Sta.Yield.rat_at_yield rat ~yield:0.95)
          ~buffers:r.buffers ~widths:r.widths;
      peak = r.stats.peak_candidates;
      total = r.stats.total_candidates;
      ops;
      t_compile;
      t_dp;
      t_eval;
    }
  | Sampled ->
    let r, t_dp =
      timed ~parent ~req "sample.run_tape" (fun _ ->
          Sample.Engine.run_tape sample_config ~model:(model net) tape)
    in
    {
      line =
        summary ~mean:r.sampled_mean ~std:r.sampled_std ~yield_rat:r.rat_at_yield
          ~buffers:r.buffers ~widths:r.widths;
      peak = r.stats.peak_candidates;
      total = r.stats.total_candidates;
      ops;
      t_compile;
      t_dp;
      t_eval = 0.0;
    }

(* refs/<workload>.ref: one "<net> <mean> <std> <yield RAT> <md5>" line
   per net, written by --make-refs. *)
let make_refs kind =
  List.iter
    (fun net ->
      let r = run_op kind ~parent:(-1) ~req:0 net in
      Printf.printf "%s %s\n%!" net.name r.line)
    (nets kind)

let load_refs kind =
  let ic = open_in (ref_path kind) in
  let tbl = Hashtbl.create 16 in
  (try
     while true do
       let l = input_line ic in
       match String.index_opt l ' ' with
       | Some i -> Hashtbl.replace tbl (String.sub l 0 i) (String.sub l (i + 1) (String.length l - i - 1))
       | None -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let layer_counters =
  [ "dp.generated.2p"; "dp.kept.2p"; "sample.generated"; "sample.kept";
    "sample.dominance_checks" ]

(* The per-layer figures of one traced pass.  [acc] holds the pass's
   Obs span times, [c0] the counters before the pass. *)
let pass_layers kind ~acc ~c0 ~pass_time results =
  let delta k = counter k - List.assoc k c0 in
  let sum_ms f = 1e3 *. Array.fold_left (fun a r -> a +. f r) 0.0 results in
  let sumi f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 results) in
  let peak = float_of_int (Array.fold_left (fun a r -> max a r.peak) 0 results) in
  let self k = span_ms acc k ~self:true and total k = span_ms acc k ~self:false in
  let engine, node, lift, prune =
    match kind with
    | Dp ->
      ( [
          ("bufins.dp_ms", sum_ms (fun r -> r.t_dp));
          ("bufins.lift_ms", self "dp/lift");
          ("bufins.prune_ms", total "dp/prune.2p");
          ("bufins.node_self_ms", self "dp/node");
          ("bufins.keep_ratio", Metrics_def.ratio (delta "dp.kept.2p") (delta "dp.generated.2p"));
          ("bufins.peak_candidates", peak);
          ("bufins.total_candidates", sumi (fun r -> r.total));
          ("sta.eval_ms", sum_ms (fun r -> r.t_eval));
        ],
        self "dp/node", self "dp/lift", total "dp/prune.2p" )
    | Sampled ->
      ( [
          ("sample.dp_ms", sum_ms (fun r -> r.t_dp));
          ("sample.lift_ms", self "sample/lift");
          ("sample.prune_ms", total "sample/prune.sample");
          ("sample.dominance_checks", float_of_int (delta "sample.dominance_checks"));
          ("sample.keep_ratio", Metrics_def.ratio (delta "sample.kept") (delta "sample.generated"));
          ("sample.peak_candidates", peak);
        ],
        self "sample/node", self "sample/lift", total "sample/prune.sample" )
  in
  let covered = sum_ms (fun r -> r.t_compile +. r.t_eval) +. node +. lift +. prune in
  [
    ("compile.tape_ms", sum_ms (fun r -> r.t_compile));
    ("compile.ops", sumi (fun r -> r.ops));
    ("unaccounted_pct", 100.0 *. (1.0 -. (covered /. (1e3 *. pass_time))));
  ]
  @ engine

let run kind ~seed ~seconds =
  (* Set-up: build the nets and load the references, at least 31 times
     and for at least a second (a sample-k256 set-up takes under a
     millisecond); the reported figure is the median. *)
  let setups = ref [] and pool = ref [||] and refs = ref (Hashtbl.create 1) in
  let t_setup = now () in
  while List.length !setups < 31 || now () -. t_setup < 1.0 do
    let t0 = now () in
    pool := Array.of_list (nets kind);
    refs := load_refs kind;
    setups := (now () -. t0) :: !setups
  done;
  let setups = Array.of_list !setups and pool = !pool and refs = !refs in
  let n = Array.length pool in
  let start = ((seed mod n) + n) mod n in
  let order = Array.init n (fun i -> pool.((start + i) mod n)) in
  let sinks = Array.fold_left (fun a net -> a + net.sinks) 0 order in
  let check_op net r =
    check ~what:net.name (Hashtbl.find_opt refs net.name = Some r.line)
  in
  (* Warm-up: the first three nets of the pass (all of dp-table1 is one
     second, so it warms with a full pass), checked but not timed. *)
  let warm = match kind with Dp -> n | Sampled -> min 3 n in
  for i = 0 to warm - 1 do
    check_op order.(i) (run_op kind ~parent:(-1) ~req:i order.(i))
  done;
  Obs.Span.set_capacity (1 lsl 18);
  (* Each net's times over the untraced passes; the reported figure is
     their median.  On a shared host a net now and then runs a third
     faster or slower for a few passes, and the median ignores those
     stretches where the fastest time would pick them up. *)
  let times = Array.make n [] in
  let untraced = ref [] and traced = ref [] in
  let layers = ref [] and gcs = ref [] in
  let t_begin = now () in
  let min_passes = if !tracing then 4 else 2 in
  let npass = ref 0 in
  while !npass < min_passes || now () -. t_begin < seconds do
    let traced_pass = !tracing && !npass mod 2 = 1 in
    let acc = Hashtbl.create 8 in
    let c0 = List.map (fun k -> (k, counter k)) layer_counters in
    let g0 = gc_mark () in
    let results, _ =
      with_obs traced_pass (fun () ->
          timed ~req:!npass "pass" (fun pid ->
              Array.mapi
                (fun i net ->
                  calibrate ();
                  let r = run_op kind ~parent:pid ~req:i net in
                  if traced_pass then drain_spans acc;
                  r)
                order))
    in
    let gc = gc_since g0 in
    Array.iteri (fun i r -> check_op order.(i) r) results;
    let op_time r = r.t_compile +. r.t_dp +. r.t_eval in
    let pass_time = Array.fold_left (fun a r -> a +. op_time r) 0.0 results in
    if traced_pass then begin
      layers := pass_layers kind ~acc ~c0 ~pass_time results :: !layers;
      traced := pass_time :: !traced
    end
    else begin
      untraced := pass_time :: !untraced;
      gcs := gc :: !gcs;
      Array.iteri (fun i r -> times.(i) <- op_time r :: times.(i)) results
    end;
    incr npass
  done;
  let untraced = Array.of_list !untraced in
  let per_net = Array.map (fun ts -> median (Array.of_list ts)) times in
  let lat_ms = Array.map (fun t -> 1e3 *. t) per_net in
  let rss = vm_hwm_mb (Unix.getpid ()) in
  print_meta ~workload:(workload_name kind) ~seed ~seconds ~jobs:1 ~shards:0
    ~samples:
      [ ("lat_p50_ms", Array.length lat_ms); ("lat_p95_ms", Array.length lat_ms);
        ("passes_untraced", Array.length untraced); ("passes_traced", List.length !traced);
        ("setups", Array.length setups) ]
    [ ("nets", string_of_int n); ("sinks_per_pass", string_of_int sinks) ];
  if not !tracing then
    Metrics_def.end_to_end ~setup_s:(median setups) ~rss_mb:rss
      ~sinks_per_s:(float_of_int sinks /. sum per_net)
      ~lat_p50_ms:(quantile lat_ms 0.50) ~lat_p95_ms:(quantile lat_ms 0.95)
  else begin
    let gcs = Array.of_list !gcs in
    let median_of k = median (Array.of_list (List.map (List.assoc k) !layers)) in
    List.map (fun (k, _) -> (k, median_of k)) (List.hd !layers)
    @ [
        ("gc.alloc_mb", median (Array.map fst gcs));
        ("gc.major_collections", median (Array.map snd gcs));
        ( "trace.overhead_pct",
          100.0 *. ((median (Array.of_list !traced) /. median untraced) -. 1.0) );
      ]
    |> Metrics_def.fill
  end
