(* Golden byte-identity regression for the default objective.

   PR 3/8/9 enforced "new machinery must not move a byte of historical
   output" in the bench gates; this suite pins the same contract inside
   [dune runtest]: with the default objective ([max_yield]) and
   [eps_power = 0], every rule x engine x sequential/jobs 1/2/4 x obs
   on/off run must reproduce the fingerprints captured from the
   pre-dominance-refactor seed (commit 620e644) exactly — %.17g floats,
   full assignment, candidate counts.  Any drift in the shared
   [Bufins.Dominance] sweep, the power threading or the convex gating
   shows up here as a fingerprint mismatch. *)

let tech = Device.Tech.default_65nm

let grid die =
  Varmodel.Grid.create ~width_um:die ~height_um:die ~pitch_um:500.0
    ~range_um:2000.0

let model die =
  Varmodel.Model.create ~mode:Varmodel.Model.Wid
    ~spatial:Varmodel.Model.default_heterogeneous ~grid:(grid die) ()

let with_pool jobs f =
  let pool = Exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () -> f pool)

let with_obs enabled f =
  let was = Obs.Control.on () in
  if enabled then Obs.Control.enable () else Obs.Control.disable ();
  Fun.protect f ~finally:(fun () ->
      if was then Obs.Control.enable () else Obs.Control.disable ())

type mode = { jobs : int option; obs : bool }

(* Every pairing of the pool-less sequential path or jobs 1/2/4 with
   obs on and off. *)
let variants =
  List.concat_map
    (fun jobs -> [ { jobs; obs = false }; { jobs; obs = true } ])
    [ None; Some 1; Some 2; Some 4 ]

let variant_name m =
  Printf.sprintf "jobs=%s obs=%b"
    (match m.jobs with None -> "seq" | Some j -> string_of_int j)
    m.obs

let with_mode m run =
  match m.jobs with
  | None -> run None
  | Some jobs -> with_pool jobs (fun pool -> run (Some pool))

let f17 = Printf.sprintf "%.17g"

let fp_buffers bufs =
  String.concat ";"
    (List.map
       (fun (n, b) -> Printf.sprintf "%d:%s" n b.Device.Buffer.name)
       bufs)

let fp_widths ws =
  String.concat ";"
    (List.map (fun (n, w) -> Printf.sprintf "%d:%s" n w.Device.Wire_lib.name) ws)

let fp_canonical (r : Bufins.Engine.result) =
  Printf.sprintf "rat=%s/%s buf=[%s] w=[%s] llm=%b peak=%d total=%d"
    (f17 (Linform.mean r.Bufins.Engine.root_rat))
    (f17 (Linform.std r.Bufins.Engine.root_rat))
    (fp_buffers r.Bufins.Engine.buffers)
    (fp_widths r.Bufins.Engine.widths)
    r.Bufins.Engine.load_limit_met
    r.Bufins.Engine.stats.Bufins.Engine.peak_candidates
    r.Bufins.Engine.stats.Bufins.Engine.total_candidates

let fp_sample (r : Sample.Engine.result) =
  Printf.sprintf "rat=%s/%s y=%s buf=[%s] w=[%s] llm=%b peak=%d total=%d"
    (f17 r.Sample.Engine.sampled_mean)
    (f17 r.Sample.Engine.sampled_std)
    (f17 r.Sample.Engine.rat_at_yield)
    (fp_buffers r.Sample.Engine.buffers)
    (fp_widths r.Sample.Engine.widths)
    r.Sample.Engine.load_limit_met
    r.Sample.Engine.stats.Bufins.Engine.peak_candidates
    r.Sample.Engine.stats.Bufins.Engine.total_candidates

let fp_prob (r : Bufins.Probabilistic.result) =
  Printf.sprintf "rat=%s/%s p05=%s buf=[%s] peak=%d"
    (f17 r.Bufins.Probabilistic.rat_mean)
    (f17 r.Bufins.Probabilistic.rat_std)
    (f17 r.Bufins.Probabilistic.rat_p05)
    (fp_buffers r.Bufins.Probabilistic.buffers)
    r.Bufins.Probabilistic.peak_candidates

(* Each case maps a run mode to its fingerprint; the contract is that
   the fingerprint does not depend on the mode. *)

let canonical_case ~rule ~library ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg =
    { (Bufins.Engine.default_config ~rule ()) with Bufins.Engine.tech; library }
  in
  fp_canonical
    (with_mode m (fun pool ->
         Bufins.Engine.run_tape ?pool ~grain:2 cfg ~model:(model die)
           (Compile.Tape.compile tree)))

let sample_case ~samples ~mseed ~relax ~library ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg =
    {
      (Sample.Engine.default_config ~samples ~seed:mseed ~relax ()) with
      Sample.Engine.tech;
      library;
    }
  in
  fp_sample
    (with_mode m (fun pool ->
         Sample.Engine.run_tape ?pool ~grain:2 cfg ~model:(model die)
           (Compile.Tape.compile tree)))

let prob_case ~heuristic ~sinks ~seed m =
  let die = 4000.0 in
  let tree = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:die () in
  let cfg = Bufins.Probabilistic.default_config ~heuristic () in
  fp_prob
    (with_mode m (fun pool ->
         Bufins.Probabilistic.run_tape ?pool ~grain:2 cfg
           (Compile.Tape.compile tree)))

let cases =
  [
    ( "det",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "2p",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "2p-hi",
      canonical_case
        ~rule:(Bufins.Prune.two_param ~p_l:0.7 ~p_t:0.9 ())
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "1p",
      canonical_case
        ~rule:(Bufins.Prune.one_param ~alpha:0.9)
        ~library:Device.Buffer.default_library ~sinks:20 ~seed:211 );
    ( "4p",
      canonical_case
        ~rule:(Bufins.Prune.four_param ())
        ~library:Device.Buffer.default_library ~sinks:8 ~seed:211 );
    ( "det-b5",
      canonical_case ~rule:Bufins.Prune.deterministic
        ~library:(Device.Buffer.synth_library ~btypes:5)
        ~sinks:16 ~seed:212 );
    ( "2p-b5",
      canonical_case
        ~rule:(Bufins.Prune.two_param ())
        ~library:(Device.Buffer.synth_library ~btypes:5)
        ~sinks:16 ~seed:212 );
    ( "sample-64",
      sample_case ~samples:64 ~mseed:1 ~relax:1.0
        ~library:Device.Buffer.default_library ~sinks:16 ~seed:7 );
    ( "sample-64-relax",
      sample_case ~samples:64 ~mseed:1 ~relax:0.9
        ~library:Device.Buffer.default_library ~sinks:16 ~seed:7 );
    ( "sample-32-b4",
      sample_case ~samples:32 ~mseed:3 ~relax:1.0
        ~library:(Device.Buffer.synth_library ~btypes:4)
        ~sinks:12 ~seed:8 );
    ("prob-mean", prob_case ~heuristic:Bufins.Probabilistic.Mean_dominance ~sinks:16 ~seed:305);
    ( "prob-pct",
      prob_case
        ~heuristic:(Bufins.Probabilistic.Percentile_dominance 0.9)
        ~sinks:12 ~seed:305 );
    ( "prob-stoch",
      prob_case ~heuristic:Bufins.Probabilistic.Stochastic_dominance ~sinks:10
        ~seed:306 );
  ]

(* Captured from the seed (sequential, obs off) before the dominance
   refactor; see the capture note at the top.  Empty while
   capturing. *)
let expected : (string * string) list =
  [
    ( "det",
      "rat=-1238.0967525690464/35.200153625159352 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x16;4:x16;2:x16] w=[] llm=true peak=18 total=225" );
    ( "2p",
      "rat=-1238.0967525690464/35.200153625159352 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x16;4:x16;2:x16] w=[] llm=true peak=18 total=225" );
    ( "2p-hi",
      "rat=-1237.870419532348/33.567917227452007 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x4;13:x16;9:x4;4:x16;2:x16] w=[] llm=true peak=699 total=1773" );
    ( "1p",
      "rat=-1245.0879812171065/42.884580975062001 buf=[37:x16;36:x4;33:x16;31:x16;28:x16;27:x4;24:x16;22:x4;18:x16;17:x4;14:x16;12:x16;9:x16;8:x4;5:x16;3:x16;2:x16] w=[] llm=true peak=17 total=226" );
    ( "4p",
      "rat=-1033.9176178252599/32.848687673171113 buf=[15:x4;14:x4;10:x16;9:x16;6:x16;3:x16;2:x16] w=[] llm=true peak=35 total=141" );
    ( "det-b5",
      "rat=-1119.6810911441805/33.596737109835779 buf=[29:buf2;28:inv3;27:inv3;26:inv3;25:inv3;24:inv3;23:inv3;22:inv3;21:inv3;20:inv3;19:inv3;18:inv3;17:inv3;16:inv3;15:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;9:inv3;8:inv3;7:inv3;6:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=47 total=359" );
    ( "2p-b5",
      "rat=-1119.6810911441805/33.596737109835779 buf=[29:buf2;28:inv3;27:inv3;26:inv3;25:inv3;24:inv3;23:inv3;22:inv3;21:inv3;20:inv3;19:inv3;18:inv3;17:inv3;16:inv3;15:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;9:inv3;8:inv3;7:inv3;6:inv3;5:inv3;4:inv3;3:inv3;2:inv3] w=[] llm=true peak=47 total=359" );
    ( "sample-64",
      "rat=-1283.4716148669841/46.757429375160669 y=-1352.4464944835011 buf=[29:x4;26:x16;25:x16;18:x16;17:x16;14:x16;11:x16;10:x16;9:x16;8:x16;4:x4;3:x16;2:x16] w=[] llm=true peak=81 total=486" );
    ( "sample-64-relax",
      "rat=-1283.4716148669841/46.757429375160669 y=-1352.4464944835011 buf=[29:x4;26:x16;25:x16;18:x16;17:x16;14:x16;11:x16;10:x16;9:x16;8:x16;4:x4;3:x16;2:x16] w=[] llm=true peak=31 total=270" );
    ( "sample-32-b4",
      "rat=-1009.4223765267278/19.990306450845544 y=-1040.3915805160871 buf=[23:inv1;20:inv3;14:inv3;13:inv3;12:inv3;11:inv3;10:inv3;8:inv3;7:inv1;6:inv3;5:inv3;3:inv3;2:buf2] w=[] llm=true peak=153 total=492" );
    ( "prob-mean",
      "rat=-1500.7756637541468/13.176016412529139 p05=-1522.4622960273625 buf=[29:x4;26:x16;25:x16;22:x4;19:x16;18:x16;17:x4;14:x4;11:x16;10:x16;7:x4;6:x16;5:x16;4:x16;2:x16] peak=15" );
    ( "prob-pct",
      "rat=-1450.8649185676918/19.184301023853052 p05=-1484.0980454681317 buf=[23:x4;20:x16;19:x4;18:x16;17:x16;16:x16;14:x16;13:x4;12:x4;9:x16;8:x16;7:x16;4:x16;2:x16] peak=17" );
    ( "prob-stoch",
      "rat=-1144.3141084189654/12.333056771832965 p05=-1165.158440286154 buf=[17:x16;12:x16;11:x16;8:x16;7:x16;6:x16;5:x16;2:x16] peak=25" );
  ]

(* Capture helper: VARBUF_GOLDEN_DUMP=FILE writes the baseline
   fingerprints of every case, one "name<TAB>fingerprint" line each,
   using the sequential obs-off variant. *)
let () =
  match Sys.getenv_opt "VARBUF_GOLDEN_DUMP" with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    List.iter
      (fun (name, case) ->
        Printf.fprintf oc "%s\t%s\n" name
          (case { jobs = None; obs = false }))
      cases;
    close_out oc

let test_case_fingerprint name case () =
  match List.assoc_opt name expected with
  | None ->
    if expected <> [] then Alcotest.failf "no golden fingerprint for %s" name
  | Some want ->
    List.iter
      (fun m ->
        let got = if m.obs then with_obs true (fun () -> case m) else case m in
        Alcotest.(check string)
          (Printf.sprintf "%s %s" name (variant_name m))
          want got)
      variants

let suite =
  List.map
    (fun (name, case) ->
      Alcotest.test_case
        (Printf.sprintf "golden %s" name)
        `Quick
        (test_case_fingerprint name case))
    cases
