type budget = {
  max_candidates : int option;
  max_seconds : float option;
}

let no_budget = { max_candidates = None; max_seconds = None }

type objective = Max_mean | Max_yield of float

type insertion = Convex_auto | Exhaustive

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  rule : Prune.t;
  budget : budget;
  objective : objective;
  load_limit : float option;
  insertion : insertion;
  power_objective : Dominance.objective;
  eps_power : float;
  energies : float array option;
}

let default_config ?(rule = Prune.two_param ()) ?(objective = Max_yield 0.95)
    ?(wire_sizing = false) () =
  let tech = Device.Tech.default_65nm in
  {
    tech;
    library = Device.Buffer.default_library;
    wires =
      (if wire_sizing then Device.Wire_lib.default_library tech
       else [| Device.Wire_lib.of_tech tech |]);
    rule;
    budget = no_budget;
    objective;
    load_limit = None;
    insertion = Convex_auto;
    power_objective = Dominance.default;
    eps_power = 0.0;
    energies = None;
  }

let energies_of config =
  match config.energies with
  | Some e -> e
  | None -> Device.Buffer.energies config.library

(* The convex pre-selection is byte-exact only when the pruning rule
   compares pure means on both axes ({!Prune.mean_exact}) and no two
   library types share an input capacitance (distinct load keys mean
   no equal-key duplicate class can span two types, so the argmax
   scan's earliest-maximiser tie-break coincides with the stable
   sort's).  Everything else falls back to exhaustive generation.
   Power-aware objectives also force exhaustive generation: the
   per-type argmax keeps only the best-timing row, but a Pareto
   frontier must let cheaper-power rows survive alongside it. *)
let use_convex config =
  config.insertion = Convex_auto
  && Prune.mean_exact config.rule
  && Device.Buffer.caps_distinct config.library
  && not (Dominance.power_aware config.power_objective)

let log_src = Logs.Src.create "varbuf.engine" ~doc:"buffer-insertion DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Budget_exceeded of string

type stats = {
  runtime_s : float;
  peak_candidates : int;
  total_candidates : int;
  nodes : int;
}

type result = {
  root_rat : Linform.t;
  best : Sol.t;
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  load_limit_met : bool;
  stats : stats;
}

(* A dual-polarity frontier.  [ev] holds the candidates that deliver
   every sink its specified signal sense (even inversion count on each
   root-sink path), [od] those one inversion away.  Libraries without
   inverters never populate [od], and the root selects from [ev] only,
   so sink polarity is restored by construction.  The even side is the
   historical frontier: with no inverters in the library the [od]
   arrays stay empty and the engine's instruction stream is the
   pre-polarity one. *)
type frontier = { ev : Sol.t array; od : Sol.t array }

let empty_frontier = { ev = [||]; od = [||] }
let frontier_size f = Array.length f.ev + Array.length f.od

(* Eq. 33-34: lift one candidate through a wire of length [l] sized
   with the given width option. *)
let lift_wire wire ~node ~width ~length (s : Sol.t) =
  let r = wire.Device.Wire_lib.res_per_um *. length in
  let load = Linform.shift (Device.Wire_lib.wire_cap wire ~length) s.Sol.load in
  let rat =
    Linform.axpy_shift (-.r) s.Sol.load s.Sol.rat
      (-.(0.5 *. r *. wire.Device.Wire_lib.cap_per_um *. length))
  in
  {
    Sol.load;
    rat;
    power = s.Sol.power;
    choice = Wire { node; width; from = s.Sol.choice };
  }

(* Same lift when the wire parasitics themselves are canonical forms
   (CMP variation): the r·L and r·c Elmore terms become first-order
   products. *)
let lift_wire_var ~node ~width ~length ~r_form ~c_form (s : Sol.t) =
  let load = Linform.add s.Sol.load (Linform.scale length c_form) in
  let r_l = Linform.scale length r_form in
  let rat =
    Linform.sub s.Sol.rat (Linform.mul_first_order r_l s.Sol.load)
    |> (fun rat ->
         Linform.sub rat
           (Linform.scale (0.5 *. length) (Linform.mul_first_order r_l c_form)))
  in
  {
    Sol.load;
    rat;
    power = s.Sol.power;
    choice = Wire { node; width; from = s.Sol.choice };
  }

(* Eq. 35-36: insert a buffer (shared canonical forms for the site)
   in front of an already-wired candidate.  [energy] is the type's
   switching + leakage energy, accumulated into the candidate's power
   axis; under the default objective the sum is carried but never
   compared. *)
let insert_buffer ~node ~buffer_index ~cb_form ~tb_form ~res ~energy
    (wired : Sol.t) =
  let rat =
    Linform.sub (Linform.axpy (-.res) wired.Sol.load wired.Sol.rat) tb_form
  in
  {
    Sol.load = cb_form;
    rat;
    power = wired.Sol.power +. energy;
    choice = Buffered { node; buffer = buffer_index; from = wired.Sol.choice };
  }

let combine_pair ~node (sa : Sol.t) (sb : Sol.t) =
  {
    Sol.load = Linform.add sa.Sol.load sb.Sol.load;
    rat = Linform.stat_min sa.Sol.rat sb.Sol.rat;
    power = sa.Sol.power +. sb.Sol.power;
    choice = Merged { node; left = sa.Sol.choice; right = sb.Sol.choice };
  }

(* Classical linear merge (Fig. 1) on two load-sorted frontiers: emit
   the combination of the current pair, then advance the side whose RAT
   binds the min; at most n + m - 1 combinations. *)
let merge_linear ~node (a : Sol.t array) (b : Sol.t array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then [||]
  else begin
    let out = Array.make (na + nb - 1) a.(0) in
    let k = ref 0 and ia = ref 0 and ib = ref 0 in
    while !ia < na && !ib < nb do
      let sa = a.(!ia) and sb = b.(!ib) in
      out.(!k) <- combine_pair ~node sa sb;
      incr k;
      if Sol.mean_rat sa < Sol.mean_rat sb then incr ia else incr ib
    done;
    if !k = na + nb - 1 then out else Array.sub out 0 !k
  end

let merge_frontiers ~node a b = merge_linear ~node a b

(* 4P cannot exploit any ordering: full cross product (§2.2).  The
   combinations are stored newest-first, preserving the order the
   original accumulator-list construction fed the pruner. *)
let merge_cross ~node ~check (a : Sol.t array) (b : Sol.t array) =
  let na = Array.length a and nb = Array.length b in
  let total = na * nb in
  if total = 0 then [||]
  else begin
    let out = Array.make total (combine_pair ~node a.(0) b.(0)) in
    let count = ref 0 in
    for i = 0 to na - 1 do
      let sa = a.(i) in
      for j = 0 to nb - 1 do
        incr count;
        check !count;
        out.(total - !count) <- combine_pair ~node sa b.(j)
      done
    done;
    out
  end

let default_grain = 64

(* Handles resolved once at module initialisation; bumped only when
   observability is enabled. *)
let obs_nodes = Obs.Counters.counter Obs.Counters.global "dp.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "dp.merged"

(* Budget checks, shared by all three engines so they raise with
   identical messages. *)
let make_checks budget ~t_start =
  let check_time () =
    match budget.max_seconds with
    | Some limit when Unix.gettimeofday () -. t_start > limit ->
      raise (Budget_exceeded (Printf.sprintf "time limit %.1fs exceeded" limit))
    | _ -> ()
  in
  let check_count ~where n =
    match budget.max_candidates with
    | Some limit when n > limit ->
      raise
        (Budget_exceeded
           (Printf.sprintf "candidate limit %d exceeded at %s (%d)" limit where n))
    | _ -> ()
  in
  (check_time, check_count)

(* Stage the wired lifts of a child frontier into the domain arena.
   [wire_rc] holds one (r, c) canonical-form pair per wire width when
   the wire parasitics themselves vary, and is empty otherwise.
   Returns the staging buffer and the staged count. *)
let fill_wired config ~wire_rc ~child ~length (sols : Sol.t array) wired nw =
  let ns = Array.length sols in
  if Array.length wire_rc > 0 then
    for k = 0 to nw - 1 do
      let width = k / ns in
      let r_form, c_form = wire_rc.(width) in
      wired.(k) <-
        lift_wire_var ~node:child ~width ~length ~r_form ~c_form
          sols.(k mod ns)
    done
  else
    for k = 0 to nw - 1 do
      let width = k / ns in
      wired.(k) <-
        lift_wire config.wires.(width) ~node:child ~width ~length
          sols.(k mod ns)
    done

let stage_wired config ~wire_rc ~child ~length (sols : Sol.t array) =
  let arena = Arena.get () in
  let nw = Array.length config.wires * Array.length sols in
  let wired = Arena.stage_a arena nw ~dummy:sols.(0) in
  fill_wired config ~wire_rc ~child ~length sols wired nw;
  (wired, nw)

(* The odd-parity wired candidates go into a plain array: the arena's
   [stage_a] holds the even side, which the cross-polarity insert
   still reads while the odd side is staged and pruned. *)
let stage_wired_plain config ~wire_rc ~child ~length (sols : Sol.t array) =
  if Array.length sols = 0 then ([||], 0)
  else begin
    let nw = Array.length config.wires * Array.length sols in
    let wired = Array.make nw sols.(0) in
    fill_wired config ~wire_rc ~child ~length sols wired nw;
    (wired, nw)
  end

(* Per-type candidate accounting, bumped only when observability is
   on.  The counter names derive from the library
   ([dp.type.<name>.generated] / [.kept]), so handles cannot be
   resolved at module initialisation; the cold registry lookup hides
   behind the obs gate. *)
let obs_types config ~child ~cand ~nw ~k out =
  let nlib = Array.length config.library in
  let gen = Array.make nlib 0 and kept = Array.make nlib 0 in
  for i = nw to k - 1 do
    match cand.(i).Sol.choice with
    | Sol.Buffered { buffer; _ } -> gen.(buffer) <- gen.(buffer) + 1
    | _ -> ()
  done;
  Array.iter
    (fun (s : Sol.t) ->
      match s.Sol.choice with
      | Sol.Buffered { node; buffer; _ } when node = child ->
        kept.(buffer) <- kept.(buffer) + 1
      | _ -> ())
    out;
  Array.iteri
    (fun bi (b : Device.Buffer.t) ->
      if gen.(bi) > 0 then
        Obs.Counters.add Obs.Counters.global
          ("dp.type." ^ b.Device.Buffer.name ^ ".generated")
          gen.(bi);
      if kept.(bi) > 0 then
        Obs.Counters.add Obs.Counters.global
          ("dp.type." ^ b.Device.Buffer.name ^ ".kept")
          kept.(bi))
    config.library

(* Stage the buffered variants on top of the wired candidates and
   prune, producing one side of a dual-polarity frontier.  [wired] /
   [nw] is this side's wired set and [cross] / [ncross] the opposite
   side's: non-inverting types ([same_types]) preserve parity and
   buffer [wired]; inverting types ([flip_types]) flip parity and
   buffer [cross].  [buf_forms] is the edge's device template: one
   (cap form, delay form, resistance) triple per library type.

   Exhaustive generation replicates the historical order — wired
   candidates reversed, then one buffered variant per type for each
   drivable wired candidate (wired-major, library order), then the
   cross-polarity variants — so the stable sort keeps the same
   representative among exact duplicates.

   [convex] is the O(bn²) insert step: for a fixed type every
   buffered candidate shares one load form, so under a mean-exact
   rule only the one maximising the buffered mean RAT can survive
   pruning; the scan computes that mean bit-exactly as the
   materialised candidate would (including [Linform.axpy]'s k = 0
   short-circuit) and the strict > comparison keeps the earliest
   maximiser — the representative the exhaustive stable sort pins.
   Candidate counts reported by obs and the response stats are
   post-prune, so the pre-selection changes no output bytes. *)
let insert_and_prune config ~convex ~energies ~same_types ~flip_types
    ~buf_forms ~child ~wired ~nw ~cross ~ncross =
  let arena = Arena.get () in
  let drivable (s : Sol.t) =
    match config.load_limit with
    | None -> true
    | Some limit -> Sol.mean_load s <= limit
  in
  let count_drivable arr n =
    let c = ref 0 in
    for i = 0 to n - 1 do
      if drivable arr.(i) then incr c
    done;
    !c
  in
  let nd_same =
    if Array.length same_types = 0 then 0 else count_drivable wired nw
  in
  let nd_flip =
    if Array.length flip_types = 0 then 0 else count_drivable cross ncross
  in
  let per_same = if convex then min nd_same 1 else nd_same in
  let per_flip = if convex then min nd_flip 1 else nd_flip in
  let ncand =
    nw
    + (per_same * Array.length same_types)
    + (per_flip * Array.length flip_types)
  in
  if ncand = 0 then [||]
  else begin
    let dummy = if nw > 0 then wired.(0) else cross.(0) in
    let cand = Arena.stage_b arena ncand ~dummy in
    for i = 0 to nw - 1 do
      cand.(nw - 1 - i) <- wired.(i)
    done;
    let k = ref nw in
    let emit src i bi =
      let cb_form, tb_form, res = buf_forms.(bi) in
      cand.(!k) <-
        insert_buffer ~node:child ~buffer_index:bi ~cb_form ~tb_form ~res
          ~energy:energies.(bi) src.(i);
      incr k
    in
    (if convex then begin
       let argmax src n bi =
         let _, tb_form, res = buf_forms.(bi) in
         let neg_res = -.res in
         let tb_nom = Linform.mean tb_form in
         let best = ref (-1) and best_m = ref neg_infinity in
         for i = 0 to n - 1 do
           let s = src.(i) in
           if drivable s then begin
             let m =
               (if neg_res = 0.0 then Sol.mean_rat s
                else (neg_res *. Sol.mean_load s) +. Sol.mean_rat s)
               -. tb_nom
             in
             if m > !best_m then begin
               best := i;
               best_m := m
             end
           end
         done;
         !best
       in
       Array.iter
         (fun bi ->
           let i = argmax wired nw bi in
           if i >= 0 then emit wired i bi)
         same_types;
       Array.iter
         (fun bi ->
           let i = argmax cross ncross bi in
           if i >= 0 then emit cross i bi)
         flip_types
     end
     else begin
       for i = 0 to nw - 1 do
         if drivable wired.(i) then
           Array.iter (fun bi -> emit wired i bi) same_types
       done;
       for i = 0 to ncross - 1 do
         if drivable cross.(i) then
           Array.iter (fun bi -> emit cross i bi) flip_types
       done
     end);
    let out =
      if Dominance.power_aware config.power_objective then
        Prune.prune_sub_power config.rule ~eps:config.eps_power cand !k
      else Prune.prune_sub config.rule cand !k
    in
    if Obs.Control.on () then obs_types config ~child ~cand ~nw ~k:!k out;
    out
  end

(* Merge two lifted child frontiers at a Steiner point — linear or
   cross-product — and prune.  [where] is the tape's precompiled
   budget-check label. *)
let combine_lifted ~where config ~node ~check_count ~check_time
    (a : Sol.t array) (b : Sol.t array) =
  let merged =
    if Prune.is_linear config.rule then merge_linear ~node a b
    else
      merge_cross ~node
        ~check:(fun c ->
          check_count ~where c;
          (* A 4P cross product is quadratic: without a deadline check
             inside the candidate loop, one pathological merge can
             overshoot a serve deadline by its whole runtime. *)
          if c land 1023 = 0 then check_time ())
        a b
  in
  if Obs.Control.on () then Obs.Counters.incr obs_merged (Array.length merged);
  if Dominance.power_aware config.power_objective then
    Prune.prune_sub_power config.rule ~eps:config.eps_power merged
      (Array.length merged)
  else Prune.prune config.rule merged

(* Merge two dual-polarity frontiers side by side: even with even, odd
   with odd — a merged candidate must deliver the same parity to both
   subtrees, so cross-parity combinations are ill-typed and never
   generated.  The odd merge is skipped entirely (not run on empties)
   when both sides are empty, keeping the inverter-free instruction
   stream identical to the historical engine. *)
let combine_frontiers ~where config ~node ~check_count ~check_time (a : frontier)
    (b : frontier) =
  let ev =
    combine_lifted ~where config ~node ~check_count ~check_time a.ev b.ev
  in
  let od =
    if Array.length a.od = 0 && Array.length b.od = 0 then [||]
    else
      combine_lifted ~where config ~node ~check_count ~check_time a.od b.od
  in
  { ev; od }

(* Per-node bookkeeping around the frontier computation [f]: budget
   checks, observability, and the peak/total statistics.  [where] is
   the tape's precompiled budget-check label. *)
let node_wrap ~where ~check_time ~check_count ~peak ~total id f =
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
  ignore (Atomic.fetch_and_add total len);
  Log.debug (fun m -> m "node %d: %d candidates kept" id len);
  front

(* Root-frontier epilogue: load-limit gate, driver lift, objective
   scan, and result assembly. *)
let finish config ~t_start ~peak ~total ~n root_sols =
  let tech = config.tech in
  (* The driver is a gate too: apply the load limit at the root if
     configured, falling back to the unconstrained set when nothing
     complies. *)
  let compliant =
    match config.load_limit with
    | None -> root_sols
    | Some limit ->
      Array.of_list
        (List.filter
           (fun s -> Sol.mean_load s <= limit)
           (Array.to_list root_sols))
  in
  let load_limit_met, root_sols =
    if Array.length compliant = 0 then (config.load_limit = None, root_sols)
    else (true, compliant)
  in
  let driver_rat (s : Sol.t) =
    Linform.axpy (-.tech.Device.Tech.driver_r) s.Sol.load s.Sol.rat
  in
  let score q =
    match config.objective with
    | Max_mean -> Linform.mean q
    | Max_yield y ->
      if Linform.is_deterministic q then Linform.mean q
      else Linform.percentile q (1.0 -. y)
  in
  assert (Array.length root_sols > 0) (* every node always yields >= 1 candidate *);
  let best = ref root_sols.(0) in
  let root_rat = ref (driver_rat root_sols.(0)) in
  (match config.power_objective with
  | Dominance.Max_yield ->
    for i = 1 to Array.length root_sols - 1 do
      let q = driver_rat root_sols.(i) in
      if score q > score !root_rat then begin
        best := root_sols.(i);
        root_rat := q
      end
    done
  | Dominance.Weighted w ->
    let best_v = ref (score !root_rat -. (w *. (!best).Sol.power)) in
    for i = 1 to Array.length root_sols - 1 do
      let q = driver_rat root_sols.(i) in
      let v = score q -. (w *. root_sols.(i).Sol.power) in
      if v > !best_v then begin
        best := root_sols.(i);
        root_rat := q;
        best_v := v
      end
    done
  | Dominance.Min_power target ->
    (* Minimum power among candidates meeting the RAT target under the
       configured score quantile; infeasible roots fall back to the
       best-score candidate so the result degrades to [Max_yield]. *)
    let feasible = ref (score !root_rat >= target) in
    for i = 1 to Array.length root_sols - 1 do
      let s = root_sols.(i) in
      let q = driver_rat s in
      let f = score q >= target in
      let better =
        if f && not !feasible then true
        else if f <> !feasible then false
        else if f then
          s.Sol.power < (!best).Sol.power
          || (s.Sol.power = (!best).Sol.power && score q > score !root_rat)
        else score q > score !root_rat
      in
      if better then begin
        best := s;
        root_rat := q;
        feasible := f
      end
    done);
  let best = !best and root_rat = !root_rat in
  let buffers =
    List.map
      (fun (node, bi) -> (node, config.library.(bi)))
      (Sol.buffers_of_choice best.Sol.choice)
  in
  let widths =
    List.map
      (fun (node, wi) -> (node, config.wires.(wi)))
      (Sol.widths_of_choice best.Sol.choice)
  in
  Log.info (fun m ->
      m "done: %d nodes, peak %d candidates, %d buffers, RAT mean %.1f" n
        (Atomic.get peak) (List.length buffers) (Linform.mean root_rat));
  {
    root_rat;
    best;
    buffers;
    widths;
    load_limit_met;
    stats =
      {
        runtime_s = Unix.gettimeofday () -. t_start;
        peak_candidates = Atomic.get peak;
        total_candidates = Atomic.get total;
        nodes = n;
      };
  }

(* Device-id binding for a compiled tape.  The model hands out
   variation source ids from a mutable counter, and the output bytes
   depend on them; consuming them inside the DP would make ids — and
   therefore results — depend on task scheduling.  Binding instead
   consumes every id up front, in tape edge order (postorder over
   parent nodes, child edges in order; per edge one wire CMP id when
   wire variation is on, then one id per library type), and records
   each edge's first id, so every schedule computes the same bytes and
   the model's counter ends where a sequential run leaves it.  Only
   the ids are consumed up front: the wire and buffer canonical forms
   they feed are pure functions of (model, ids, coordinates) and are
   built at the op that uses them, so a form is consumed right after
   it is built instead of every edge's forms being materialised ahead
   of the whole DP. *)
let bind_device_ids ~model ~ids_per_edge (tape : Compile.Tape.t) =
  let nedges = tape.Compile.Tape.edges in
  let device_base = Array.make (max nedges 1) (-1) in
  for e = 0 to nedges - 1 do
    device_base.(e) <- Varmodel.Model.fresh_device_id model;
    for _ = 2 to ids_per_edge do
      ignore (Varmodel.Model.fresh_device_id model)
    done
  done;
  device_base

let run_tape ?pool ?(grain = default_grain) config ~model
    (tape : Compile.Tape.t) =
  (* Wall-clock, not [Sys.time]: CPU time sums over domains, so it
     over-counts budgets and runtimes as soon as anything else runs in
     parallel with the DP. *)
  let t_start = Unix.gettimeofday () in
  let check_time, check_count = make_checks config.budget ~t_start in
  let n = tape.Compile.Tape.n in
  let wire_variation = Varmodel.Model.wire_frac model > 0.0 in
  let nlib = Array.length config.library in
  let ids_per_edge = (if wire_variation then 1 else 0) + nlib in
  let device_base = bind_device_ids ~model ~ids_per_edge tape in
  (* Per-site data is written and read only by the one task that owns
     the node (an edge's site is its parent node), so the plain array
     is race-free under the scheduler.  The location-dependent part of
     a site's buffer forms (spatial weights, heterogeneity ramp) is
     built once per node and shared by every edge hanging under it. *)
  let sites : Varmodel.Model.site option array = Array.make n None in
  let site_at id =
    match sites.(id) with
    | Some s -> s
    | None ->
      let s =
        Varmodel.Model.site model ~x:tape.Compile.Tape.x.(id)
          ~y:tape.Compile.Tape.y.(id)
      in
      sites.(id) <- Some s;
      s
  in
  let wire_rc_at edge =
    if not wire_variation then [||]
    else begin
      let edge_id = device_base.(edge) in
      let mx = tape.Compile.Tape.edge_mid_x.(edge) in
      let my = tape.Compile.Tape.edge_mid_y.(edge) in
      Array.map
        (fun wire ->
          Varmodel.Model.wire_forms model ~edge_id ~x:mx ~y:my
            ~r0:wire.Device.Wire_lib.res_per_um
            ~c0:wire.Device.Wire_lib.cap_per_um)
        config.wires
    end
  in
  let buf_forms_at edge =
    let psite = site_at tape.Compile.Tape.edge_site.(edge) in
    let buf_base = device_base.(edge) + if wire_variation then 1 else 0 in
    Array.init nlib (fun bi ->
        let b = config.library.(bi) in
        let device_id = buf_base + bi in
        let cb =
          Varmodel.Model.site_device_form model psite ~device_id
            ~nominal:b.Device.Buffer.cap_ff
        in
        let tb =
          Varmodel.Model.site_device_form model psite ~device_id
            ~nominal:b.Device.Buffer.delay_ps
        in
        (cb, tb, b.Device.Buffer.res_kohm))
  in
  (* Atomics, not refs: subtree tasks on different domains bump them
     concurrently.  Max and sum commute, so the reported stats are
     identical at any job count. *)
  let peak = Atomic.make 0 in
  let total = Atomic.make 0 in
  let same_types, flip_types = Device.Buffer.partition_indices config.library in
  let has_inv = Array.length flip_types > 0 in
  let convex = use_convex config in
  let energies = energies_of config in
  let sched = Compile.Tape.schedule ?pool ~grain tape in
  let slot_of = sched.Compile.Tape.slot_of in
  let frontiers : frontier array =
    Array.make sched.Compile.Tape.slots empty_frontier
  in
  let ops = tape.Compile.Tape.ops in
  let exec_node id =
    frontiers.(slot_of.(id)) <-
      node_wrap ~where:tape.Compile.Tape.where_node.(id) ~check_time
        ~check_count ~peak ~total id (fun () ->
          let o0 = tape.Compile.Tape.op_off.(id) in
          let o1 = tape.Compile.Tape.op_end.(id) in
          match ops.(o0) with
          | Compile.Tape.Tag_sink { node; cap; rat } ->
            { ev = [| Sol.of_sink ~node ~cap ~rat |]; od = [||] }
          | _ ->
            let lifted0 = ref empty_frontier and lifted1 = ref empty_frontier in
            let nlift = ref 0 in
            let wired = ref [||] and nw = ref 0 in
            let cross = ref [||] and ncross = ref 0 in
            let lift_t0 = ref 0 in
            let out = ref empty_frontier in
            for o = o0 to o1 - 1 do
              match ops.(o) with
              | Compile.Tape.Tag_sink _ -> assert false
              | Compile.Tape.Lift_edge { child; edge; length } ->
                if Obs.Control.on () then lift_t0 := Obs.Span.now_ns ();
                let f = frontiers.(slot_of.(child)) in
                frontiers.(slot_of.(child)) <- empty_frontier;
                let wire_rc = wire_rc_at edge in
                let w, cnt = stage_wired config ~wire_rc ~child ~length f.ev in
                let cw, ccnt =
                  stage_wired_plain config ~wire_rc ~child ~length f.od
                in
                wired := w;
                nw := cnt;
                cross := cw;
                ncross := ccnt
              | Compile.Tape.Insert_site { child; edge } ->
                let buf_forms = buf_forms_at edge in
                let ev =
                  insert_and_prune config ~convex ~energies ~same_types
                    ~flip_types ~buf_forms ~child ~wired:!wired ~nw:!nw
                    ~cross:!cross ~ncross:!ncross
                in
                let od =
                  if (not has_inv) && !ncross = 0 then [||]
                  else
                    insert_and_prune config ~convex ~energies ~same_types
                      ~flip_types ~buf_forms ~child ~wired:!cross ~nw:!ncross
                      ~cross:!wired ~ncross:!nw
                in
                let l = { ev; od } in
                if Obs.Control.on () then
                  Obs.Span.record ~name:"lift" ~cat:"dp" ~t0_ns:!lift_t0;
                check_count ~where:tape.Compile.Tape.where_edge.(edge)
                  (frontier_size l);
                if !nlift = 0 then lifted0 := l else lifted1 := l;
                incr nlift;
                out := l
              | Compile.Tape.Merge { node } ->
                let a = !lifted0 and b = !lifted1 in
                lifted0 := empty_frontier;
                lifted1 := empty_frontier;
                out :=
                  combine_frontiers ~where:tape.Compile.Tape.where_merge.(node)
                    config ~node ~check_count ~check_time a b
            done;
            !out)
  in
  sched.Compile.Tape.run exec_node;
  if Obs.Control.on () then Obs.Span.flush ();
  finish config ~t_start ~peak ~total ~n
    frontiers.(slot_of.(Compile.Tape.root tape)).ev

let run ?pool ?grain config ~model tree =
  run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)
