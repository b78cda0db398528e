(* Command-line buffer-insertion tool: generate or pick a benchmark,
   run one of the algorithms with any pruning rule, and report the
   solution together with its evaluation under the full variation
   model. *)

open Cmdliner

type source =
  | Bench of string
  | Random of int      (* sinks *)
  | Htree of int       (* levels *)
  | File of string     (* varbuf tree file *)

let die_of_tree tree =
  (* Bounding square of the net, grid-aligned, for trees loaded from
     files (generated sources know their die directly). *)
  let hi = ref 4000.0 in
  for id = 0 to Rctree.Tree.node_count tree - 1 do
    let x, y = Rctree.Tree.position tree id in
    hi := Float.max !hi (Float.max x y)
  done;
  ceil (!hi /. 500.0) *. 500.0

let load_tree source seed =
  match source with
  | Bench name ->
    let info = Rctree.Benchmarks.find name in
    (Rctree.Benchmarks.load info, info.Rctree.Benchmarks.die_um)
  | Random sinks ->
    let die_um = Float.max 4000.0 (sqrt (float_of_int sinks) *. 400.0) in
    (Rctree.Generate.random_steiner ~seed ~sinks ~die_um (), die_um)
  | Htree levels ->
    let die_um = 20000.0 in
    (Rctree.Generate.h_tree ~seed ~levels ~die_um (), die_um)
  | File path ->
    let tree = Rctree.Io.load path in
    (tree, die_of_tree tree)

let algo_of_string = function
  | "nom" -> Ok Experiments.Common.Nom
  | "d2d" -> Ok Experiments.Common.D2d
  | "wid" -> Ok Experiments.Common.Wid
  | s -> Error (Printf.sprintf "unknown algorithm %S (nom|d2d|wid)" s)

let rule_of_string p = function
  | "det" -> Ok Bufins.Prune.deterministic
  | "2p" -> Ok (Bufins.Prune.two_param ~p_l:p ~p_t:p ())
  | "1p" -> Ok (Bufins.Prune.one_param ~alpha:0.95)
  | "4p" -> Ok (Bufins.Prune.four_param ())
  | s ->
    Error (Printf.sprintf "unknown pruning rule %S (det|2p|1p|4p|sample)" s)

(* Flush, then write/print the observability outputs the flags asked
   for.  Runs on both the normal and the DNF exit path, so an aborted
   run still leaves a partial trace to look at. *)
let dump_obs ~obs ~trace =
  if obs || trace <> None then begin
    Obs.Span.flush ();
    let spans = Obs.Span.snapshot () in
    Option.iter
      (fun path ->
        (try Obs.Export.write_chrome ~path spans
         with Sys_error msg ->
           prerr_endline ("cannot write trace: " ^ msg);
           exit 1);
        Format.printf "trace written to %s@." path)
      trace;
    if obs then
      print_string (Obs.Export.summary ~counters:Obs.Counters.global spans)
  end

let run bench sinks htree file algo_s rule_s p seed mc homogeneous save_tree
    wire_sizing save_buffering load_limit lib_file btypes jobs par_grain samples
    relax objective_s eps_power obs trace =
  if obs || trace <> None then Obs.Control.enable ();
  let source =
    match (bench, sinks, htree, file) with
    | Some b, None, None, None -> Ok (Bench b)
    | None, Some n, None, None -> Ok (Random n)
    | None, None, Some l, None -> Ok (Htree l)
    | None, None, None, Some f -> Ok (File f)
    | None, None, None, None -> Ok (Bench "p1")
    | _ -> Error "give at most one of --bench, --sinks, --htree, --load"
  in
  match source with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok source -> (
    (* "sample" is not a canonical pruning rule: it routes the run to
       the sampling-based yield engine.  The placeholder rule below is
       never used on that path. *)
    let rule_res =
      if rule_s = "sample" then
        if samples < 1 then Error "--samples must be >= 1 with --rule sample"
        else Ok Bufins.Prune.deterministic
      else rule_of_string p rule_s
    in
    (* --lib / --btypes select the buffer library for the run; every
       engine threads it through candidate generation, the device-id
       pre-pass and the polarity-aware frontiers. *)
    let library_res =
      match (lib_file, btypes) with
      | Some _, Some _ -> Error "give at most one of --lib and --btypes"
      | Some path, None -> (
        try Ok (Device.Buffer.load path)
        with Sys_error msg | Failure msg ->
          Error ("cannot load buffer library: " ^ msg))
      | None, Some b ->
        if b < 1 then Error "--btypes must be >= 1"
        else Ok (Device.Buffer.synth_library ~btypes:b)
      | None, None -> Ok Experiments.Common.default_setup.library
    in
    let objective_res =
      if eps_power < 0.0 then Error "--eps-power must be >= 0"
      else
        try Ok (Bufins.Dominance.of_string objective_s)
        with Failure msg -> Error msg
    in
    match (algo_of_string algo_s, rule_res, library_res, objective_res) with
    | Error msg, _, _, _
    | _, Error msg, _, _
    | _, _, Error msg, _
    | _, _, _, Error msg ->
      prerr_endline msg;
      1
    | Ok algo, Ok rule, Ok library, Ok objective -> (
      let pool = if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None in
      let finally () = Option.iter Exec.Pool.shutdown pool in
      Fun.protect ~finally @@ fun () ->
      let setup =
        {
          Experiments.Common.default_setup with
          mc_trials = mc;
          pool;
          par_grain;
          library;
        }
      in
      if lib_file <> None || btypes <> None then
        Format.printf "library: %d types (%d inverting)@." (Array.length library)
          (Array.length library
          - Array.length (fst (Device.Buffer.partition_indices library)));
      let tree, die_um =
        try load_tree source seed with
        | Not_found ->
          prerr_endline
            (Printf.sprintf "unknown benchmark (known: %s)"
               (String.concat ", " Rctree.Benchmarks.names));
          exit 1
        | Sys_error msg | Failure msg ->
          prerr_endline ("cannot load tree: " ^ msg);
          exit 1
      in
      let grid = Experiments.Common.grid_for setup ~die_um in
      let spatial =
        if homogeneous then Varmodel.Model.Homogeneous
        else Varmodel.Model.default_heterogeneous
      in
      Format.printf "tree: %a@." Rctree.Tree.pp_stats tree;
      Option.iter
        (fun path ->
          (try Rctree.Io.save path tree
           with Sys_error msg ->
             prerr_endline ("cannot save tree: " ^ msg);
             exit 1);
          Format.printf "tree written to %s@." path)
        save_tree;
      try
        let buffers, widths, stats, load_limit_met, label, sampled, power =
          if rule_s = "sample" then begin
            let r =
              Experiments.Common.run_sampled setup ~wire_sizing ?load_limit
                ~samples ~relax ~seed ~objective ~eps_power ~spatial
                ~grid algo tree
            in
            ( r.Sample.Engine.buffers,
              r.Sample.Engine.widths,
              r.Sample.Engine.stats,
              r.Sample.Engine.load_limit_met,
              Printf.sprintf "sample(K=%d)" samples,
              Some
                ( r.Sample.Engine.sampled_mean,
                  r.Sample.Engine.sampled_std,
                  r.Sample.Engine.rat_at_yield ),
              r.Sample.Engine.best.Sample.Engine.power )
          end
          else begin
            let r =
              Experiments.Common.run_algo setup ~rule ~wire_sizing ?load_limit
                ~objective ~eps_power ~spatial ~grid algo tree
            in
            ( r.Bufins.Engine.buffers,
              r.Bufins.Engine.widths,
              r.Bufins.Engine.stats,
              r.Bufins.Engine.load_limit_met,
              Bufins.Prune.name rule,
              None,
              r.Bufins.Engine.best.Bufins.Sol.power )
          end
        in
        let form =
          Experiments.Common.evaluate setup ~spatial ~grid tree ~widths buffers
        in
        Format.printf
          "%s/%s: buffers=%d sized-wires=%d runtime=%.2fs peak-candidates=%d@."
          (Experiments.Common.algo_name algo)
          label (List.length buffers) (List.length widths)
          stats.Bufins.Engine.runtime_s stats.Bufins.Engine.peak_candidates;
        if not load_limit_met then
          Format.printf "warning: the load limit could not be met anywhere@.";
        Option.iter
          (fun (mu, sigma, raty) ->
            Format.printf
              "sampled driver RAT (K=%d): mu=%.1f ps, sigma=%.1f ps, \
               95%%-yield RAT=%.1f ps@."
              samples mu sigma raty)
          sampled;
        Format.printf
          "root RAT under full model: mu=%.1f ps, sigma=%.1f ps, 95%%-yield RAT=%.1f ps@."
          (Linform.mean form) (Linform.std form)
          (Sta.Yield.rat_at_yield form ~yield:0.95);
        if Bufins.Dominance.power_aware objective then
          Format.printf "objective %s: buffer energy=%.3f fJ@."
            (Bufins.Dominance.to_string objective) power;
        Option.iter
          (fun path ->
            (try
               Bufins.Assignment.save path { Bufins.Assignment.buffers; widths }
             with Sys_error msg ->
               prerr_endline ("cannot save buffering: " ^ msg);
               exit 1);
            Format.printf "buffering written to %s@." path)
          save_buffering;
        if mc > 0 then begin
          let inst =
            Experiments.Common.instance_for setup ~spatial ~grid tree ~widths
              buffers
          in
          let rng = Numeric.Rng.create ~seed in
          let samples = Sta.Buffered.monte_carlo ?pool inst ~rng ~trials:mc in
          let s = Numeric.Stats.summarize samples in
          Format.printf "Monte Carlo (%d trials): mu=%.1f ps, sigma=%.1f ps@." mc
            s.Numeric.Stats.mean s.Numeric.Stats.std
        end;
        dump_obs ~obs ~trace;
        0
      with Bufins.Engine.Budget_exceeded msg ->
        Format.printf "DNF: %s@." msg;
        dump_obs ~obs ~trace;
        2))

let bench_arg =
  Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME"
         ~doc:"Benchmark name (p1, p2, r1..r5).")

let sinks_arg =
  Arg.(value & opt (some int) None & info [ "sinks" ] ~docv:"N"
         ~doc:"Generate a random Steiner tree with N sinks.")

let htree_arg =
  Arg.(value & opt (some int) None & info [ "htree" ] ~docv:"LEVELS"
         ~doc:"Generate an H-tree clock net with 4^LEVELS sinks.")

let algo_arg =
  Arg.(value & opt string "wid" & info [ "algo" ] ~docv:"ALGO"
         ~doc:"Algorithm: nom, d2d or wid.")

let rule_arg =
  Arg.(value & opt string "2p" & info [ "rule" ] ~docv:"RULE"
         ~doc:"Pruning rule: det, 2p, 1p or 4p — or sample, which runs \
               the Monte-Carlo sample-matrix DP (see --samples).")

let p_arg =
  Arg.(value & opt float 0.5 & info [ "p" ] ~docv:"P"
         ~doc:"The 2P parameters p_L = p_T (0.5 to 1).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let mc_arg =
  Arg.(value & opt int 0 & info [ "mc" ] ~docv:"N"
         ~doc:"Also run N Monte-Carlo trials on the result.")

let homogeneous_arg =
  Arg.(value & flag & info [ "homogeneous" ]
         ~doc:"Use the homogeneous spatial model (default: heterogeneous).")

let file_arg =
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
         ~doc:"Load the routing tree from a varbuf tree file.")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save-tree" ] ~docv:"FILE"
         ~doc:"Write the routing tree (before buffering) to FILE.")

let wire_sizing_arg =
  Arg.(value & flag & info [ "wire-sizing" ]
         ~doc:"Size wires simultaneously with buffer insertion (3-width library).")

let save_buffering_arg =
  Arg.(value & opt (some string) None & info [ "save-buffering" ] ~docv:"FILE"
         ~doc:"Write the chosen buffering (and wire sizing) to FILE for varbuf-sta.")

let load_limit_arg =
  Arg.(value & opt (some float) None & info [ "load-limit" ] ~docv:"FF"
         ~doc:"Maximum capacitance (fF) any buffer or the driver may drive.")

let lib_arg =
  Arg.(value & opt (some string) None & info [ "lib" ] ~docv:"FILE"
         ~doc:"Load the buffer library from FILE: one device per \
               non-comment line, NAME CAP_FF DELAY_PS RES_KOHM \
               [inv|buf].  Inverters are legal — the DP keeps \
               dual-polarity frontiers and only even inverter chains \
               reach the sinks.")

let btypes_arg =
  Arg.(value & opt (some int) None & info [ "btypes" ] ~docv:"B"
         ~doc:"Use the deterministic synthetic library with B device \
               types (a geometric size ladder alternating repeaters \
               and inverters).  B=1 keeps the default 3-type library.  \
               Mutually exclusive with --lib.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Worker domains: the DP's subtree tasks and Monte-Carlo \
               chunks run across them.  Results are identical at any \
               job count.")

let par_grain_arg =
  Arg.(value & opt (some int) None & info [ "par-grain" ] ~docv:"NODES"
         ~doc:"Subtree-size cutoff for DP parallelism: subtrees at or \
               below it run inline inside their parent task (default: \
               the engine's built-in grain).")

let samples_arg =
  Arg.(value & opt int 256 & info [ "samples" ] ~docv:"K"
         ~doc:"Process corners per candidate with --rule sample: every \
               candidate is a K-vector over one shared sample matrix \
               drawn from --seed, and dominance is counted per sample. \
               Ignored by the canonical rules.")

let relax_arg =
  Arg.(value & opt float 1.0 & info [ "relax" ] ~docv:"R"
         ~doc:"Yield-target relaxation for sample dominance: a \
               candidate is pruned only when dominated in at least \
               ceil(R*K) samples.  1 (default) is exact full dominance; \
               above 1 disables pruning (brute force).")

let objective_arg =
  Arg.(value & opt string "max_yield" & info [ "objective" ] ~docv:"OBJ"
         ~doc:"Optimisation objective: max_yield (the default — \
               historical behaviour, byte-identical output), \
               min_power=RAT (least buffer energy among root candidates \
               whose 95%-yield driver RAT meets RAT ps), or weighted=W \
               (maximise yield-RAT minus W times the buffer energy in \
               fJ).  Any power-aware objective prunes on the (load, \
               RAT, power) Pareto frontier.")

let eps_power_arg =
  Arg.(value & opt float 0.0 & info [ "eps-power" ] ~docv:"EPS"
         ~doc:"Epsilon-dominance bucket width (fJ) on the power axis of \
               the Pareto frontier; 0 (default) keeps the exact \
               frontier.  Only read under a power-aware --objective.")

let obs_arg =
  Arg.(value & flag & info [ "obs" ]
         ~doc:"Enable observability (spans + counters) and print a text \
               summary — per-phase span totals, per-rule candidate \
               generated/kept/pruned counters, arena hit rates — after \
               the run.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Enable observability and write the run's spans to FILE as \
               Chrome trace_event JSON (load in chrome://tracing or \
               Perfetto).")

let cmd =
  let doc = "variation-aware buffer insertion on a routing tree" in
  let info = Cmd.info "varbuf-bufferins" ~doc in
  Cmd.v info
    Term.(
      const run $ bench_arg $ sinks_arg $ htree_arg $ file_arg $ algo_arg
      $ rule_arg $ p_arg $ seed_arg $ mc_arg $ homogeneous_arg $ save_arg
      $ wire_sizing_arg $ save_buffering_arg $ load_limit_arg $ lib_arg
      $ btypes_arg $ jobs_arg $ par_grain_arg $ samples_arg $ relax_arg
      $ objective_arg $ eps_power_arg $ obs_arg $ trace_arg)

let () = exit (Cmd.eval' cmd)
