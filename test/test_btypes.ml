(* Multi-type buffer library tests: the convex insertion step must be
   an optimisation, never a semantics change (Convex_auto ≡ Exhaustive
   byte-for-byte wherever it engages, across engines, job counts and
   obs), and the dual-polarity frontiers must only ever
   choose assignments whose inverter chains restore sink polarity. *)

let qcheck = Qseed.to_alcotest
let tech = Device.Tech.default_65nm

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model ?(mode = Varmodel.Model.Wid) die =
  Varmodel.Model.create ~mode ~spatial:Varmodel.Model.default_heterogeneous
    ~grid:(grid die) ()

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

let config ?(rule = Bufins.Prune.two_param ()) ?(library = Device.Buffer.default_library)
    ?(insertion = Bufins.Engine.Convex_auto) () =
  {
    (Bufins.Engine.default_config ~rule ()) with
    Bufins.Engine.tech;
    library;
    insertion;
  }

let strip_result (r : Bufins.Engine.result) =
  ( r.Bufins.Engine.root_rat,
    r.Bufins.Engine.best,
    r.Bufins.Engine.buffers,
    r.Bufins.Engine.widths,
    r.Bufins.Engine.load_limit_met,
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates,
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates )

(* ---------- the library itself ---------- *)

let test_synth_library () =
  (* b <= 1 is the historical 3-repeater library: byte-compatible
     behaviour for every caller that never asks for types. *)
  Alcotest.(check bool) "b=1 is the default library" true
    (Device.Buffer.synth_library ~btypes:1 = Device.Buffer.default_library);
  List.iter
    (fun b ->
      let lib = Device.Buffer.synth_library ~btypes:b in
      Alcotest.(check int) (Printf.sprintf "b=%d size" b) b (Array.length lib);
      Alcotest.(check bool) (Printf.sprintf "b=%d has inverters" b) (b >= 2)
        (Device.Buffer.has_inverter lib);
      Alcotest.(check bool) (Printf.sprintf "b=%d caps distinct" b) true
        (Device.Buffer.caps_distinct lib);
      let ni, inv = Device.Buffer.partition_indices lib in
      Alcotest.(check int) (Printf.sprintf "b=%d partition covers" b) b
        (Array.length ni + Array.length inv);
      Array.iter
        (fun i ->
          Alcotest.(check bool) "inv slot inverts" true
            (Device.Buffer.is_inverting lib.(i)))
        inv)
    [ 2; 3; 4; 8; 16 ]

let test_library_parser () =
  let text =
    "# a two-type library\n\
     bufA 8.0 120.0 2.0\n\
     invA 8.0 72.0 2.0 inv\n\
     \n\
     bufB 24.0 140.0 0.8 buf\n"
  in
  let lib = Device.Buffer.of_string text in
  Alcotest.(check int) "three entries" 3 (Array.length lib);
  Alcotest.(check bool) "invA inverts" true
    (Device.Buffer.is_inverting (Device.Buffer.find lib "invA"));
  Alcotest.(check bool) "bufB does not" false
    (Device.Buffer.is_inverting (Device.Buffer.find lib "bufB"));
  let ni, inv = Device.Buffer.partition_indices lib in
  Alcotest.(check (list int)) "partition order" [ 0; 2 ] (Array.to_list ni);
  Alcotest.(check (list int)) "inverter slots" [ 1 ] (Array.to_list inv);
  Alcotest.(check bool) "duplicate caps detected" false
    (Device.Buffer.caps_distinct lib)

(* ---------- canonical engine: convex ≡ exhaustive ---------- *)

let rules =
  [
    Bufins.Prune.deterministic;
    Bufins.Prune.two_param ();  (* 2P(0.5,0.5): convex engages *)
    Bufins.Prune.two_param ~p_l:0.9 ~p_t:0.9 ();  (* falls back *)
    Bufins.Prune.one_param ~alpha:0.95;
    Bufins.Prune.four_param ();
  ]

let libraries =
  [
    ("b=1", Device.Buffer.default_library);
    ("b=2", Device.Buffer.synth_library ~btypes:2);
    ("b=5", Device.Buffer.synth_library ~btypes:5);
  ]

let test_convex_equals_exhaustive () =
  let die = 4000.0 in
  List.iter
    (fun rule ->
      let cases =
        if Bufins.Prune.is_linear rule then [ (211, 12); (97, 25) ]
        else [ (211, 6) ]
      in
      List.iter
        (fun (lbl, library) ->
          List.iter
            (fun (seed, sinks) ->
              let tree =
                Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die ()
              in
              let run insertion =
                strip_result
                  (Bufins.Engine.run
                     (config ~rule ~library ~insertion ())
                     ~model:(model die) tree)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s seed=%d convex=exhaustive"
                   (Bufins.Prune.name rule) lbl seed)
                true
                (run Bufins.Engine.Convex_auto = run Bufins.Engine.Exhaustive))
            cases)
        libraries)
    rules

let test_convex_tape_jobs_obs () =
  (* One mean-exact rule on an inverter-bearing library: a fresh
     compile, a reused tape, jobs 1/2/4 and obs on/off must all land on
     the same bytes, in both insertion modes. *)
  let die = 4000.0 in
  let library = Device.Buffer.synth_library ~btypes:4 in
  let tree = Rctree.Generate.random_steiner ~seed:311 ~sinks:22 ~die_um:die () in
  let tape = Compile.Tape.compile tree in
  List.iter
    (fun insertion ->
      let cfg = config ~library ~insertion () in
      let base =
        strip_result (Bufins.Engine.run cfg ~model:(model die) tree)
      in
      List.iter
        (fun obs ->
          with_obs obs (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "reused tape obs=%b" obs)
                true
                (strip_result (Bufins.Engine.run_tape cfg ~model:(model die) tape)
                = base);
              List.iter
                (fun jobs ->
                  with_pool jobs (fun pool ->
                      Alcotest.(check bool)
                        (Printf.sprintf "jobs=%d obs=%b" jobs obs)
                        true
                        (strip_result
                           (Bufins.Engine.run_tape ~pool ~grain:2 cfg
                              ~model:(model die) tape)
                        = base)))
                [ 1; 2; 4 ]))
        [ false; true ])
    [ Bufins.Engine.Convex_auto; Bufins.Engine.Exhaustive ]

(* ---------- polarity invariant ---------- *)

(* Parity of inverters on the root→sink path; a buffer at node v sits
   on the edge above v, so v's subtree sees it. *)
let check_sink_parity tree buffers =
  let inverts v =
    match List.assoc_opt v buffers with
    | Some b -> Device.Buffer.is_inverting b
    | None -> false
  in
  let ok = ref true in
  let rec go v parity =
    let parity = if inverts v then not parity else parity in
    match Rctree.Tree.children tree v with
    | [] -> if parity then ok := false
    | kids -> List.iter (fun (k, _) -> go k parity) kids
  in
  go (Rctree.Tree.root tree) false;
  !ok

let prop_inverter_chains_restore_polarity =
  QCheck.Test.make ~count:40
    ~name:"chosen assignments have even inverter count on every root-sink path"
    QCheck.(triple (int_range 2 30) (int_range 0 10_000) (int_range 2 6))
    (fun (sinks, seed, b) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let library = Device.Buffer.synth_library ~btypes:b in
      let r =
        Bufins.Engine.run (config ~library ()) ~model:(model die) tree
      in
      check_sink_parity tree r.Bufins.Engine.buffers)

let prop_sample_polarity =
  QCheck.Test.make ~count:15
    ~name:"sampling engine keeps sink polarity with inverter libraries"
    QCheck.(pair (int_range 2 16) (int_range 0 1000))
    (fun (sinks, seed) ->
      let die = 4000.0 in
      let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
      let library = Device.Buffer.synth_library ~btypes:4 in
      let cfg =
        { (Sample.Engine.default_config ~samples:32 ~seed:3 ()) with tech; library }
      in
      let r = Sample.Engine.run cfg ~model:(model die) tree in
      check_sink_parity tree r.Sample.Engine.buffers)

(* ---------- sampling engine: prefilter ≡ brute force ---------- *)

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

let test_sample_prefilter_identity () =
  let die = 4000.0 in
  List.iter
    (fun (lbl, library) ->
      (* relax = 1 engages the prefilter; relax > 1 disables pruning
         entirely, so Convex_auto must disengage and match the brute
         force bit-for-bit there too.  Unpruned frontiers grow
         exponentially, hence the tiny trees at relax > 1. *)
      List.iter
        (fun (relax, cases) ->
          List.iter
            (fun (seed, sinks) ->
              let tree =
                Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die ()
              in
              let run insertion =
                let cfg =
                  {
                    (Sample.Engine.default_config ~samples:48 ~seed:5 ~relax ()) with
                    tech;
                    library;
                    insertion;
                  }
                in
                strip_sample (Sample.Engine.run cfg ~model:(model die) tree)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s relax=%.1f seed=%d prefilter=brute" lbl
                   relax seed)
                true
                (run Bufins.Engine.Convex_auto = run Bufins.Engine.Exhaustive))
            cases)
        [ (1.0, [ (41, 10); (42, 18) ]); (1.5, [ (41, 3); (42, 4) ]) ])
    libraries

(* ---------- probabilistic DP: compaction ≡ exhaustive ---------- *)

let strip_prob (r : Bufins.Probabilistic.result) =
  (r.rat_mean, r.rat_std, r.rat_p05, r.buffers, r.peak_candidates)

let test_probabilistic_convex_identity () =
  List.iter
    (fun (heuristic, sinks, seed) ->
      List.iter
        (fun (lbl, library) ->
          let tree =
            Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 ()
          in
          let run insertion =
            let cfg =
              {
                (Bufins.Probabilistic.default_config ~heuristic ()) with
                Bufins.Probabilistic.library;
                insertion;
              }
            in
            strip_prob (Bufins.Probabilistic.run cfg tree)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s seed=%d convex=exhaustive"
               (Bufins.Probabilistic.heuristic_name heuristic) lbl seed)
            true
            (run Bufins.Engine.Convex_auto = run Bufins.Engine.Exhaustive))
        libraries)
    [
      (Bufins.Probabilistic.Mean_dominance, 18, 305);
      (Bufins.Probabilistic.Stochastic_dominance, 8, 306);
    ]

let suite =
  [
    Alcotest.test_case "synthetic ladder library" `Quick test_synth_library;
    Alcotest.test_case "library file parser" `Quick test_library_parser;
    Alcotest.test_case "canonical convex = exhaustive (rules x libraries)"
      `Quick test_convex_equals_exhaustive;
    Alcotest.test_case "convex identity across tape/jobs/obs" `Quick
      test_convex_tape_jobs_obs;
    qcheck prop_inverter_chains_restore_polarity;
    qcheck prop_sample_polarity;
    Alcotest.test_case "sample prefilter = brute force (relax 1 and 1.5)"
      `Quick test_sample_prefilter_identity;
    Alcotest.test_case "probabilistic compaction = exhaustive" `Quick
      test_probabilistic_convex_identity;
  ]
