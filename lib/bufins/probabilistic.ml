type heuristic =
  | Mean_dominance
  | Percentile_dominance of float
  | Stochastic_dominance

let heuristic_name = function
  | Mean_dominance -> "mean"
  | Percentile_dominance p -> Printf.sprintf "pctl(%.2f)" p
  | Stochastic_dominance -> "stochastic"

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  heuristic : heuristic;
  length_frac : float;
  pmf_points : int;
  budget : Engine.budget;
  insertion : Engine.insertion;
  power_objective : Dominance.objective;
  eps_power : float;
  energies : float array option;
}

let default_config ?(heuristic = Stochastic_dominance) ?(length_frac = 0.05) () =
  {
    tech = Device.Tech.default_65nm;
    library = Device.Buffer.default_library;
    heuristic;
    length_frac;
    pmf_points = 5;
    budget = Engine.no_budget;
    insertion = Engine.Convex_auto;
    power_objective = Dominance.default;
    eps_power = 0.0;
    energies = None;
  }

let energies_of config =
  match config.energies with
  | Some e -> e
  | None -> Device.Buffer.energies config.library

type sol = {
  load : Numeric.Pmf.t;
  rat : Numeric.Pmf.t;
  power : float;
  choice : Sol.choice;
}

(* Dual-polarity frontier, mirroring the canonical engine: [ev]
   candidates deliver every sink its specified signal sense, [od] are
   one inversion away.  Inverter-free libraries keep [od] empty and
   the historical single-frontier instruction stream; the root selects
   from [ev] only. *)
type frontier = { ev : sol array; od : sol array }

let empty_frontier = { ev = [||]; od = [||] }
let frontier_size f = Array.length f.ev + Array.length f.od

type result = {
  rat_mean : float;
  rat_std : float;
  rat_p05 : float;
  buffers : (int * Device.Buffer.t) list;
  power : float;
  peak_candidates : int;
  runtime_s : float;
}

let dominates heuristic a b =
  match heuristic with
  | Mean_dominance ->
    Numeric.Pmf.mean a.load <= Numeric.Pmf.mean b.load
    && Numeric.Pmf.mean a.rat >= Numeric.Pmf.mean b.rat
  | Percentile_dominance p ->
    Numeric.Pmf.percentile a.load p <= Numeric.Pmf.percentile b.load p
    && Numeric.Pmf.percentile a.rat p >= Numeric.Pmf.percentile b.rat p
  | Stochastic_dominance ->
    (* b's load must dominate a's (a is smaller) and a's rat must
       dominate b's (a is larger). *)
    Numeric.Pmf.stochastically_dominates b.load a.load
    && Numeric.Pmf.stochastically_dominates a.rat b.rat

(* Mean and percentile dominance are total orders, so the sorted sweep
   is exact and only the last kept candidate need be tested; stochastic
   dominance is partial, so candidates are tested against every kept
   solution (the unbounded-complexity behaviour [6] was criticised
   for).  A mean-ordering prefilter like the 2P sweep's would not be
   exact here: [Pmf.stochastically_dominates] admits a small CDF
   tolerance, so a dominating PMF's mean may sit fractionally below the
   dominated one's.  Keys are computed once per candidate and the sort
   is stable, so which duplicate survives (and hence the choice trail)
   is unchanged from the list implementation. *)
let prune_impl config (sols : sol array) =
  let heuristic = config.heuristic in
  let power_aware = Dominance.power_aware config.power_objective in
  let eps = config.eps_power in
  let n = Array.length sols in
  if n <= 1 then sols
  else begin
    let arena = Arena.get () in
    let kl = Arena.load_keys arena n and kr = Arena.rat_keys arena n in
    (match heuristic with
    | Percentile_dominance p ->
      for i = 0 to n - 1 do
        kl.(i) <- Numeric.Pmf.percentile sols.(i).load p;
        kr.(i) <- Numeric.Pmf.percentile sols.(i).rat p
      done
    | Mean_dominance | Stochastic_dominance ->
      for i = 0 to n - 1 do
        kl.(i) <- Numeric.Pmf.mean sols.(i).load;
        kr.(i) <- Numeric.Pmf.mean sols.(i).rat
      done);
    let idx = Arena.perm arena n in
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    Arena.sort_prefix arena idx n ~cmp:(fun a b ->
        let c = Float.compare kl.(a) kl.(b) in
        if c <> 0 then c
        else begin
          let c = Float.compare kr.(b) kr.(a) in
          if c <> 0 || not power_aware then c
          else Float.compare sols.(a).power sols.(b).power
        end);
    let dom =
      if power_aware then fun (a : sol) (b : sol) ->
        Dominance.power_le ~eps a.power b.power && dominates heuristic a b
      else dominates heuristic
    in
    (* The total-order heuristics test only the last kept candidate;
       a power-aware prune must scan the whole kept set (the frontier
       is partial again), but both rules' dominance implies the RAT-key
       ordering, so the running-max prefilter applies.  Stochastic
       dominance admits a CDF tolerance that breaks the mean ordering,
       hence the unfiltered scan. *)
    let scan =
      match heuristic with
      | Stochastic_dominance -> Dominance.Scan_kept
      | Mean_dominance | Percentile_dominance _ ->
        if power_aware then Dominance.Rat_prefilter else Dominance.Exact_last
    in
    let kept = Arena.kept arena n in
    let nkept =
      Dominance.sweep ~order:idx ~n
        ~rat_key:(fun i -> kr.(i))
        ~dominates:(fun k i -> dom sols.(k) sols.(i))
        ~scan ~kept
    in
    Array.init nkept (fun k -> sols.(kept.(k)))
  end

(* Handles resolved once at module initialisation (handle lookup locks
   the registry); bumped only when observability is enabled. *)
let obs_generated = Obs.Counters.counter Obs.Counters.global "prob.generated"
let obs_kept = Obs.Counters.counter Obs.Counters.global "prob.kept"
let obs_pruned = Obs.Counters.counter Obs.Counters.global "prob.pruned"
let obs_nodes = Obs.Counters.counter Obs.Counters.global "prob.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "prob.merged"

let prune config sols =
  if not (Obs.Control.on ()) then prune_impl config sols
  else begin
    let t0 = Obs.Span.now_ns () in
    let out = prune_impl config sols in
    Obs.Counters.incr obs_generated (Array.length sols);
    Obs.Counters.incr obs_kept (Array.length out);
    Obs.Counters.incr obs_pruned (Array.length sols - Array.length out);
    Obs.Span.record ~name:"prune.prob" ~cat:"dp" ~t0_ns:t0;
    out
  end

(* Lift a child frontier through the edge above it.  Model-free: the
   PMFs derive from the edge length and the technology constants
   alone, so the tape needs no binding step.

   Each output parity side takes its own wired candidates plus
   buffered variants: same-parity (non-inverting) types over its own
   wired rows and parity-flipping (inverting) types over the opposite
   side's.  [convex] (Convex_auto insertion under [Mean_dominance]
   with pairwise-distinct caps) compacts each type's block to the
   single source maximising the buffered mean RAT before the prune:
   every candidate of a type shares the constant load PMF, so the
   total-order sweep provably drops all others, and with distinct caps
   no equal-key class spans two types, so the earliest maximiser is
   exactly the duplicate the stable sort would keep — the pruned
   frontier is identical to exhaustive generation. *)
let lift_edge config ~energies ~same_types ~flip_types ~convex ~child ~length
    (f : frontier) =
  let tech = config.tech in
  (* The manufactured length of each segment: drawn length times
     (1 + delta), delta discretised from N(0, length_frac^2). *)
  let l_pmf =
    Numeric.Pmf.of_normal ~points:config.pmf_points ~mu:length
      ~sigma:(config.length_frac *. length)
      ()
  in
  let wire s =
    (* Independence everywhere, as in [6]: wire cap and wire delay are
       derived from the length PMF against the load's mean. *)
    let load_mean = Numeric.Pmf.mean s.load in
    let added_cap = Numeric.Pmf.scale tech.Device.Tech.wire_c l_pmf in
    let delay_pmf =
      Numeric.Pmf.map
        (fun l ->
          let r = tech.Device.Tech.wire_r *. l in
          (r *. load_mean) +. (0.5 *. r *. tech.Device.Tech.wire_c *. l))
        l_pmf
    in
    {
      load = Numeric.Pmf.add s.load added_cap;
      rat = Numeric.Pmf.sub s.rat delay_pmf;
      power = s.power;
      choice = Sol.Wire { node = child; width = 0; from = s.choice };
    }
  in
  let wired_ev = Array.map wire f.ev in
  let wired_od = Array.map wire f.od in
  let od_out = Array.length flip_types > 0 || Array.length wired_od > 0 in
  let buffered ws bi =
    let b = config.library.(bi) in
    let gate_delay =
      Numeric.Pmf.map
        (fun load ->
          b.Device.Buffer.delay_ps +. (b.Device.Buffer.res_kohm *. load))
        ws.load
    in
    {
      load = Numeric.Pmf.constant b.Device.Buffer.cap_ff;
      rat = Numeric.Pmf.sub ws.rat gate_delay;
      power = ws.power +. energies.(bi);
      choice = Sol.Buffered { node = child; buffer = bi; from = ws.choice };
    }
  in
  (* Reversed wired candidates first, then the buffered variants in
     generation order (wired-major, library-order within) — the same
     sequence [List.rev_append] fed the pruner, kept so the stable
     sort sees identical input. *)
  let build_side (own : sol array) (cross : sol array) =
    let nw = Array.length own and nx = Array.length cross in
    let per_own = if convex then min nw 1 else nw in
    let per_cross = if convex then min nx 1 else nx in
    let ncand =
      nw
      + (per_own * Array.length same_types)
      + (per_cross * Array.length flip_types)
    in
    if ncand = 0 then [||]
    else begin
      let dummy = if nw > 0 then own.(0) else cross.(0) in
      let cand = Array.make ncand dummy in
      for i = 0 to nw - 1 do
        cand.(nw - 1 - i) <- own.(i)
      done;
      let k = ref nw in
      let emit s =
        cand.(!k) <- s;
        incr k
      in
      if convex then begin
        (* Earliest maximiser of the buffered mean RAT, strict [>]. *)
        let argmax (src : sol array) bi =
          let best = ref (buffered src.(0) bi) in
          let best_m = ref (Numeric.Pmf.mean !best.rat) in
          for i = 1 to Array.length src - 1 do
            let s = buffered src.(i) bi in
            let m = Numeric.Pmf.mean s.rat in
            if m > !best_m then begin
              best := s;
              best_m := m
            end
          done;
          !best
        in
        Array.iter (fun bi -> if nw > 0 then emit (argmax own bi)) same_types;
        Array.iter
          (fun bi -> if nx > 0 then emit (argmax cross bi))
          flip_types
      end
      else begin
        for i = 0 to nw - 1 do
          Array.iter (fun bi -> emit (buffered own.(i) bi)) same_types
        done;
        for i = 0 to nx - 1 do
          Array.iter (fun bi -> emit (buffered cross.(i) bi)) flip_types
        done
      end;
      let out = prune config cand in
      if Obs.Control.on () then begin
        let nlib = Array.length config.library in
        let gen = Array.make nlib 0 and kept = Array.make nlib 0 in
        for i = nw to ncand - 1 do
          match cand.(i).choice with
          | Sol.Buffered { buffer; _ } -> gen.(buffer) <- gen.(buffer) + 1
          | _ -> ()
        done;
        Array.iter
          (fun s ->
            match s.choice with
            | Sol.Buffered { node; buffer; _ } when node = child ->
              kept.(buffer) <- kept.(buffer) + 1
            | _ -> ())
          out;
        Array.iteri
          (fun bi (b : Device.Buffer.t) ->
            if gen.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("prob.type." ^ b.Device.Buffer.name ^ ".generated")
                gen.(bi);
            if kept.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("prob.type." ^ b.Device.Buffer.name ^ ".kept")
                kept.(bi))
          config.library
      end;
      out
    end
  in
  let ev = build_side wired_ev wired_od in
  let od = if not od_out then [||] else build_side wired_od wired_ev in
  { ev; od }

(* The full cross-product merge of [6] (independence between
   solutions), with the in-loop deadline check, followed by a prune. *)
let merge_node ~where config ~node ~check_time ~check_count a b =
  let na = Array.length a and nb = Array.length b in
  let combine sa sb =
    {
      load = Numeric.Pmf.add sa.load sb.load;
      rat = Numeric.Pmf.min2 sa.rat sb.rat;
      power = sa.power +. sb.power;
      choice = Sol.Merged { node; left = sa.choice; right = sb.choice };
    }
  in
  let merged = Array.make (na * nb) (combine a.(0) b.(0)) in
  for i = 0 to na - 1 do
    for j = 0 to nb - 1 do
      let k = (i * nb) + j in
      (* The cross product is quadratic: check the deadline inside the
         loop, not only per node, so one pathological merge cannot
         overshoot the budget by its whole runtime. *)
      if k land 1023 = 0 then check_time ();
      merged.(k) <- combine a.(i) b.(j)
    done
  done;
  check_count ~where (Array.length merged);
  if Obs.Control.on () then Obs.Counters.incr obs_merged (Array.length merged);
  prune config merged

(* Parity-matched subtree merge: even with even, odd with odd.  A side
   with an empty operand merges to empty (a merged candidate needs
   both subtrees at the same parity), and the odd merge is skipped
   entirely for inverter-free runs. *)
let merge_frontiers ~where config ~node ~check_time ~check_count (a : frontier)
    (b : frontier) =
  let side x y =
    if Array.length x = 0 || Array.length y = 0 then [||]
    else merge_node ~where config ~node ~check_time ~check_count x y
  in
  let ev = side a.ev b.ev in
  let od =
    if Array.length a.od = 0 && Array.length b.od = 0 then [||]
    else side a.od b.od
  in
  { ev; od }

(* Per-node bookkeeping around the frontier computation [f].  [where]
   is the tape's precompiled budget-check label. *)
let node_wrap ~where ~check_time ~check_count ~peak f =
  check_time ();
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let front = f () in
  if obs then begin
    Obs.Counters.incr obs_nodes 1;
    Obs.Span.record ~name:"node" ~cat:"dp" ~t0_ns:t0
  end;
  let len = frontier_size front in
  check_count ~where len;
  let rec bump_peak () =
    let cur = Atomic.get peak in
    if len > cur && not (Atomic.compare_and_set peak cur len) then bump_peak ()
  in
  bump_peak ();
  front

(* Pick the root candidate with the best mean driver-input RAT and
   assemble the result record. *)
let finish config ~t_start ~peak root_sols =
  let tech = config.tech in
  let best =
    assert (Array.length root_sols > 0);
    let q s =
      Numeric.Pmf.mean s.rat
      -. (tech.Device.Tech.driver_r *. Numeric.Pmf.mean s.load)
    in
    let bs = ref root_sols.(0) in
    (match config.power_objective with
    | Dominance.Max_yield ->
      for i = 1 to Array.length root_sols - 1 do
        if q root_sols.(i) > q !bs then bs := root_sols.(i)
      done
    | Dominance.Weighted w ->
      for i = 1 to Array.length root_sols - 1 do
        let s = root_sols.(i) in
        if q s -. (w *. s.power) > q !bs -. (w *. (!bs).power) then bs := s
      done
    | Dominance.Min_power target ->
      (* Minimum power among candidates whose mean driver RAT meets
         the target; infeasible roots fall back to the best-mean
         pick. *)
      let feasible = ref (q !bs >= target) in
      for i = 1 to Array.length root_sols - 1 do
        let s = root_sols.(i) in
        let f = q s >= target in
        let better =
          if f && not !feasible then true
          else if f <> !feasible then false
          else if f then
            s.power < (!bs).power
            || (s.power = (!bs).power && q s > q !bs)
          else q s > q !bs
        in
        if better then begin
          bs := s;
          feasible := f
        end
      done);
    !bs
  in
  let rat =
    Numeric.Pmf.sub best.rat
      (Numeric.Pmf.scale tech.Device.Tech.driver_r best.load)
  in
  {
    rat_mean = Numeric.Pmf.mean rat;
    rat_std = Numeric.Pmf.std rat;
    rat_p05 = Numeric.Pmf.percentile rat 0.05;
    buffers =
      List.map
        (fun (node, bi) -> (node, config.library.(bi)))
        (Sol.buffers_of_choice best.choice);
    power = best.power;
    peak_candidates = Atomic.get peak;
    runtime_s = Unix.gettimeofday () -. t_start;
  }

let run_tape ?pool ?(grain = Engine.default_grain) config tape =
  (* Wall-clock, not [Sys.time]: CPU time sums over domains, so both
     the budget and the reported runtime would over-count as soon as
     anything else runs in parallel with this DP ([Exec.run_trials]
     routinely wraps this module). *)
  let t_start = Unix.gettimeofday () in
  let check_time, check_count = Engine.make_checks config.budget ~t_start in
  (* Atomic: subtree tasks on different domains bump it concurrently;
     max commutes, so the stat is identical at any job count.  This DP
     consumes no shared mutable state at all (no device-id counter),
     so determinism needs only the fixed merge order. *)
  let peak = Atomic.make 0 in
  let sched = Compile.Tape.schedule ?pool ~grain tape in
  let slot_of = sched.Compile.Tape.slot_of in
  let frontiers : frontier array =
    Array.make sched.Compile.Tape.slots empty_frontier
  in
  let same_types, flip_types =
    Device.Buffer.partition_indices config.library
  in
  let convex =
    config.insertion = Engine.Convex_auto
    && (match config.heuristic with Mean_dominance -> true | _ -> false)
    && Device.Buffer.caps_distinct config.library
    && not (Dominance.power_aware config.power_objective)
  in
  let energies = energies_of config in
  let exec_node id =
    let o0 = tape.Compile.Tape.op_off.(id)
    and o1 = tape.Compile.Tape.op_end.(id) in
    frontiers.(slot_of.(id)) <-
      node_wrap ~where:tape.Compile.Tape.where_node.(id) ~check_time
        ~check_count ~peak (fun () ->
          let lifted0 = ref empty_frontier and lifted1 = ref empty_frontier in
          let nlift = ref 0 in
          let out = ref empty_frontier in
          for o = o0 to o1 - 1 do
            match tape.Compile.Tape.ops.(o) with
            | Compile.Tape.Tag_sink { node; cap; rat } ->
              out :=
                {
                  ev =
                    [|
                      {
                        load = Numeric.Pmf.constant cap;
                        rat = Numeric.Pmf.constant rat;
                        power = 0.0;
                        choice = Sol.At_sink node;
                      };
                    |];
                  od = [||];
                }
            | Compile.Tape.Lift_edge _ -> ()
            | Compile.Tape.Insert_site { child; edge } ->
              let cf = frontiers.(slot_of.(child)) in
              frontiers.(slot_of.(child)) <- empty_frontier;
              let l =
                lift_edge config ~energies ~same_types ~flip_types ~convex
                  ~child ~length:tape.Compile.Tape.edge_length.(edge) cf
              in
              check_count ~where:tape.Compile.Tape.where_edge.(edge)
                (frontier_size l);
              if !nlift = 0 then lifted0 := l else lifted1 := l;
              incr nlift;
              out := l
            | Compile.Tape.Merge { node } ->
              let merged =
                merge_frontiers ~where:tape.Compile.Tape.where_merge.(node)
                  config ~node ~check_time ~check_count !lifted0 !lifted1
              in
              lifted0 := empty_frontier;
              lifted1 := empty_frontier;
              out := merged
          done;
          !out)
  in
  sched.Compile.Tape.run exec_node;
  if Obs.Control.on () then Obs.Span.flush ();
  finish config ~t_start ~peak frontiers.(slot_of.(Compile.Tape.root tape)).ev

let run ?pool ?grain config tree =
  run_tape ?pool ?grain config (Compile.Tape.compile tree)
