(* Tests for lib/compile: the flat instruction tape and its
   interpreters.

   The contract under test is byte-identity across schedules: for every
   pruning rule (det/2P/1P/4P), the sampling engine and the
   probabilistic DP, one compiled tape interpreted again and again —
   sequentially, under the task-parallel decomposition at any job
   count, with observability on or off — must produce exactly the
   result of [run] on a fresh compile of the same tree: same
   assignment, same stats, same candidate counts.  Two properties also
   check the tape DP of the canonical and sampling engines against an
   independent tree walk, the Bufins.Det reference, under a Nom model;
   the rest of what the results are is pinned in test_golden. *)

let qcheck = Qseed.to_alcotest
let tech = Device.Tech.default_65nm
let library = Device.Buffer.default_library

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let config ?(rule = Bufins.Prune.two_param ()) () =
  {
    (Bufins.Engine.default_config ~rule ()) with
    Bufins.Engine.tech;
    library;
  }

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.load_limit_met,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

let par_rules =
  [
    Bufins.Prune.deterministic;
    Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();
    Bufins.Prune.one_param ~alpha:0.95;
    Bufins.Prune.four_param ();
  ]

(* ---------- tape structure ---------- *)

let test_compile_shape () =
  let tree = Rctree.Generate.random_steiner ~seed:11 ~sinks:30 ~die_um:4000.0 () in
  let tape = Compile.Tape.compile tree in
  Alcotest.(check int) "nodes" (Rctree.Tree.node_count tree)
    (Compile.Tape.node_count tape);
  Alcotest.(check int) "edges" (Rctree.Tree.edge_count tree)
    (Compile.Tape.edge_count tape);
  Alcotest.(check int) "root" (Rctree.Tree.root tree) (Compile.Tape.root tape);
  (* Compact slot assignment: never more live frontiers than nodes,
     and a chain of reuses keeps the count near the tree's width. *)
  Alcotest.(check bool) "slots bounded" true
    (Compile.Tape.slot_count tape <= Compile.Tape.node_count tape
    && Compile.Tape.slot_count tape >= 1);
  (* Op count: one Tag_sink per sink, one Lift_edge + one Insert_site
     per edge, one Merge per 2-child node. *)
  let sinks = ref 0 and merges = ref 0 in
  Array.iter
    (fun id ->
      if Rctree.Tree.is_sink tree id then incr sinks
      else if List.length (Rctree.Tree.children tree id) = 2 then incr merges)
    (Rctree.Tree.postorder tree);
  Alcotest.(check int) "ops"
    (!sinks + (2 * Compile.Tape.edge_count tape) + !merges)
    (Compile.Tape.op_count tape)

(* ---------- canonical engine identity ---------- *)

(* The model consumes device ids as the DP runs, so every run gets a
   fresh model; identity across tape reuse and job counts is exactly
   the claim under test. *)
let test_tape_identity_rules () =
  let die = 4000.0 in
  List.iter
    (fun rule ->
      let cases =
        if Bufins.Prune.is_linear rule then [ (211, 12); (212, 30) ]
        else [ (211, 8) ]
      in
      List.iter
        (fun (seed, sinks) ->
          let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
          let tape = Compile.Tape.compile tree in
          let cfg = config ~rule () in
          let base =
            strip_result (Bufins.Engine.run cfg ~model:(model die) tree)
          in
          let seq =
            strip_result (Bufins.Engine.run_tape cfg ~model:(model die) tape)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d reused tape" (Bufins.Prune.name rule)
               seed)
            true (seq = base);
          List.iter
            (fun jobs ->
              with_pool jobs (fun pool ->
                  let r =
                    Bufins.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die)
                      tape
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s seed=%d jobs=%d = seq"
                       (Bufins.Prune.name rule) seed jobs)
                    true
                    (strip_result r = base)))
            [ 1; 2; 4 ])
        cases)
    par_rules

let test_tape_identity_obs () =
  let tree = Rctree.Generate.random_steiner ~seed:213 ~sinks:20 ~die_um:4000.0 () in
  let tape = Compile.Tape.compile tree in
  let cfg = config () in
  let base =
    with_obs false (fun () ->
        strip_result (Bufins.Engine.run cfg ~model:(model 4000.0) tree))
  in
  List.iter
    (fun obs ->
      with_obs obs (fun () ->
          let r = Bufins.Engine.run_tape cfg ~model:(model 4000.0) tape in
          Alcotest.(check bool)
            (Printf.sprintf "obs=%b seq" obs)
            true
            (strip_result r = base);
          with_pool 2 (fun pool ->
              let r =
                Bufins.Engine.run_tape ~pool ~grain:2 cfg ~model:(model 4000.0)
                  tape
              in
              Alcotest.(check bool)
                (Printf.sprintf "obs=%b jobs=2" obs)
                true
                (strip_result r = base))))
    [ false; true ]

let prop_tape_jobs =
  QCheck.Test.make
    ~name:"tape, jobs 1 = jobs 2/4 (random trees, all rules)" ~count:10
    QCheck.(
      quad (int_range 2 20) (int_range 0 1000) (int_range 0 3) (int_range 0 1))
    (fun (sinks, seed, rule_idx, jobs_idx) ->
      let rule = List.nth par_rules rule_idx in
      let sinks = if Bufins.Prune.is_linear rule then sinks else min sinks 8 in
      let jobs = List.nth [ 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let tape = Compile.Tape.compile tree in
      let cfg = config ~rule () in
      let run jobs =
        with_pool jobs (fun pool ->
            strip_result
              (Bufins.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die) tape))
      in
      run 1 = run jobs)

(* The tape interpreter against an independent tree walk: Bufins.Det
   is the textbook van Ginneken recursion over the Rctree itself, so
   under a Nom model and the deterministic rule the tape DP must reach
   its optimum at every job count. *)
let prop_tape_matches_walk =
  QCheck.Test.make
    ~name:"tape DP = tree walk (random trees, det rule vs Bufins.Det, jobs 1/2/4)"
    ~count:10
    QCheck.(triple (int_range 1 40) (int_range 0 1000) (int_range 0 2))
    (fun (sinks, seed, jobs_idx) ->
      let jobs = List.nth [ 1; 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let walk = Bufins.Det.run ~tech ~library tree in
      let tape = Compile.Tape.compile tree in
      let cfg = config ~rule:Bufins.Prune.deterministic () in
      let r =
        with_pool jobs (fun pool ->
            Bufins.Engine.run_tape ~pool ~grain:2 cfg
              ~model:(model ~mode:Varmodel.Model.Nom die)
              tape)
      in
      Float.abs
        (Linform.mean r.Bufins.Engine.root_rat -. walk.Bufins.Det.root_rat)
      <= 1e-6
      && List.length r.Bufins.Engine.buffers
         = List.length walk.Bufins.Det.buffers)

(* ---------- sampling engine identity ---------- *)

let strip_sample (r : Sample.Engine.result) =
  ( r.Sample.Engine.best.Sample.Engine.load,
    r.Sample.Engine.best.Sample.Engine.rat,
    r.Sample.Engine.root_rat,
    r.Sample.Engine.root_best_per_sample,
    r.Sample.Engine.buffers,
    r.Sample.Engine.widths,
    r.Sample.Engine.sampled_mean,
    r.Sample.Engine.sampled_std,
    r.Sample.Engine.rat_at_yield,
    r.Sample.Engine.load_limit_met,
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates,
    r.Sample.Engine.stats.Bufins.Engine.total_candidates )

let test_tape_identity_sample () =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed:7 ~sinks:24 ~die_um:die () in
  let tape = Compile.Tape.compile tree in
  let cfg =
    { (Sample.Engine.default_config ~samples:64 ~seed:1 ()) with tech; library }
  in
  let base = strip_sample (Sample.Engine.run cfg ~model:(model die) tree) in
  let seq = strip_sample (Sample.Engine.run_tape cfg ~model:(model die) tape) in
  Alcotest.(check bool) "sample reused tape" true (seq = base);
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let r =
            Sample.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die) tape
          in
          Alcotest.(check bool)
            (Printf.sprintf "sample jobs=%d = seq" jobs)
            true
            (strip_sample r = base)))
    [ 1; 2; 4 ]

let prop_tape_jobs_sample =
  QCheck.Test.make ~name:"sample tape, jobs 1 = jobs 2/4 (random trees)"
    ~count:6
    QCheck.(triple (int_range 2 14) (int_range 0 1000) (int_range 0 1))
    (fun (sinks, seed, jobs_idx) ->
      let jobs = List.nth [ 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let tape = Compile.Tape.compile tree in
      let cfg =
        {
          (Sample.Engine.default_config ~samples:32 ~seed:3 ()) with
          tech;
          library;
        }
      in
      let run jobs =
        with_pool jobs (fun pool ->
            strip_sample
              (Sample.Engine.run_tape ~pool ~grain:2 cfg ~model:(model die) tape))
      in
      run 1 = run jobs)

(* Under a Nom model every sample is the nominal process, so the
   sampling engine's tape DP must reproduce the Bufins.Det tree walk's
   optimum exactly, with zero sampled spread. *)
let prop_sample_tape_matches_walk =
  QCheck.Test.make
    ~name:"sample tape DP = tree walk (random trees, Nom model vs Bufins.Det)"
    ~count:6
    QCheck.(triple (int_range 1 14) (int_range 0 1000) (int_range 0 2))
    (fun (sinks, seed, jobs_idx) ->
      let jobs = List.nth [ 1; 2; 4 ] jobs_idx in
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let walk = Bufins.Det.run ~tech ~library tree in
      let tape = Compile.Tape.compile tree in
      let cfg =
        {
          (Sample.Engine.default_config ~samples:8 ~seed:3 ()) with
          tech;
          library;
        }
      in
      let r =
        with_pool jobs (fun pool ->
            Sample.Engine.run_tape ~pool ~grain:2 cfg
              ~model:(model ~mode:Varmodel.Model.Nom die)
              tape)
      in
      r.Sample.Engine.sampled_std = 0.0
      && Float.abs (r.Sample.Engine.sampled_mean -. walk.Bufins.Det.root_rat)
         <= 1e-6)

(* ---------- probabilistic DP identity ---------- *)

let strip_prob (r : Bufins.Probabilistic.result) =
  (r.rat_mean, r.rat_std, r.rat_p05, r.buffers, r.peak_candidates)

let test_tape_identity_probabilistic () =
  List.iter
    (fun (heuristic, sinks, seed) ->
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 () in
      let tape = Compile.Tape.compile tree in
      let cfg = Bufins.Probabilistic.default_config ~heuristic () in
      let base = strip_prob (Bufins.Probabilistic.run cfg tree) in
      Alcotest.(check bool)
        (Printf.sprintf "%s reused tape"
           (Bufins.Probabilistic.heuristic_name heuristic))
        true
        (strip_prob (Bufins.Probabilistic.run_tape cfg tape) = base);
      List.iter
        (fun jobs ->
          with_pool jobs (fun pool ->
              let r = Bufins.Probabilistic.run_tape ~pool ~grain:2 cfg tape in
              Alcotest.(check bool)
                (Printf.sprintf "%s jobs=%d = seq"
                   (Bufins.Probabilistic.heuristic_name heuristic) jobs)
                true
                (strip_prob r = base)))
        [ 2; 4 ])
    [
      (Bufins.Probabilistic.Mean_dominance, 20, 305);
      (Bufins.Probabilistic.Stochastic_dominance, 10, 306);
    ]

let suite =
  [
    Alcotest.test_case "compile shape" `Quick test_compile_shape;
    Alcotest.test_case "tape identity (all rules, jobs)" `Quick
      test_tape_identity_rules;
    Alcotest.test_case "tape identity (obs on/off)" `Quick
      test_tape_identity_obs;
    Alcotest.test_case "tape identity (sample engine)" `Quick
      test_tape_identity_sample;
    Alcotest.test_case "tape identity (probabilistic)" `Quick
      test_tape_identity_probabilistic;
    qcheck prop_tape_jobs;
    qcheck prop_tape_matches_walk;
    qcheck prop_tape_jobs_sample;
    qcheck prop_sample_tape_matches_walk;
  ]
