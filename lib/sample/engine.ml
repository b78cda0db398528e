(* The sampling-based yield engine (Zhang/Li/Schlichtmann, PAPERS.md).

   Same DP skeleton as [Bufins.Engine.run_tape] — the compiled tape's
   postorder, wire lift + buffer insertion per edge, subtree merge,
   prune — but every candidate carries its downstream load and RAT as
   K-vectors: the exact value of the candidate under each of K
   Monte-Carlo process corners drawn once per run into a shared
   [Matrix].  Nothing assumes joint normality; the per-sample Elmore arithmetic is exact (the
   r·load and r·c wire products are true per-sample products, where
   the canonical engine keeps a first-order linearisation, and the
   merge takes a true per-sample min where the canonical engine blends
   with Clark's statistical min).

   Pruning is per-sample dominance counting: candidate A dies when
   some other candidate ties-or-beats it (load <=, RAT >=) in at least
   [need = ceil(relax * K)] samples.  At relax = 1 that is full
   dominance — the dropped candidate loses or ties in *every* sampled
   corner, so dropping it can never change the per-sample optimum
   (dominance is preserved by the wire lift [r >= 0], buffer
   insertion, merge-min and driver subtraction, monotonically in
   floating point too, since fl(x + y) etc. are monotone per
   argument).  relax < 1 trades exactness for pruning power when only
   a yield-level statement is wanted; relax > 1 disables pruning
   entirely (the brute-force reference the tests compare against).

   Determinism: the matrix rows depend only on (seed, source id, K);
   source ids come from the same binding pass as the canonical engine
   ({!Bufins.Engine.bind_device_ids}); merges keep the fixed child
   order and the pruning sweep is a stable sort plus a deterministic
   scan.  Output is therefore
   byte-identical at any --jobs and with obs on or off. *)

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  samples : int;
  seed : int;
  relax : float;
  yield : float;
  budget : Bufins.Engine.budget;
  load_limit : float option;
  insertion : Bufins.Engine.insertion;
  power_objective : Bufins.Dominance.objective;
  eps_power : float;
  energies : float array option;
}

let default_config ?(samples = 256) ?(seed = 1) ?(relax = 1.0)
    ?(yield = 0.95) ?(wire_sizing = false) () =
  if samples <= 0 then invalid_arg "Sample.Engine: samples must be positive";
  if not (relax > 0.0) then invalid_arg "Sample.Engine: relax must be positive";
  if not (yield > 0.0 && yield < 1.0) then
    invalid_arg "Sample.Engine: yield must lie in (0, 1)";
  let tech = Device.Tech.default_65nm in
  {
    tech;
    library = Device.Buffer.default_library;
    wires =
      (if wire_sizing then Device.Wire_lib.default_library tech
       else [| Device.Wire_lib.of_tech tech |]);
    samples;
    seed;
    relax;
    yield;
    budget = Bufins.Engine.no_budget;
    load_limit = None;
    insertion = Bufins.Engine.Convex_auto;
    power_objective = Bufins.Dominance.default;
    eps_power = 0.0;
    energies = None;
  }

let energies_of config =
  match config.energies with
  | Some e -> e
  | None -> Device.Buffer.energies config.library

type sol = {
  load : float array; (* per-sample downstream capacitance, fF *)
  rat : float array; (* per-sample required arrival time, ps *)
  power : float; (* accumulated buffer energy, fJ (exact, not sampled) *)
  choice : Bufins.Sol.choice;
}

(* Dual-polarity frontier, mirroring the canonical engine: [ev] rows
   deliver every sink its specified signal sense, [od] rows are one
   inversion away.  Without inverters in the library [od] stays empty
   and the instruction stream is the historical single-frontier one;
   the root selects from [ev] only. *)
type frontier = { ev : sol array; od : sol array }

let empty_frontier = { ev = [||]; od = [||] }
let frontier_size f = Array.length f.ev + Array.length f.od

type result = {
  best : sol;
  root_rat : float array;
  root_best_per_sample : float array;
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  sampled_mean : float;
  sampled_std : float;
  rat_at_yield : float;
  load_limit_met : bool;
  stats : Bufins.Engine.stats;
}

let log_src = Logs.Src.create "varbuf.sample" ~doc:"sampling-based yield DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_grain = Bufins.Engine.default_grain

(* Handles resolved once at module initialisation; bumped only when
   observability is enabled. *)
let obs_nodes = Obs.Counters.counter Obs.Counters.global "sample.nodes"
let obs_merged = Obs.Counters.counter Obs.Counters.global "sample.merged"
let obs_generated = Obs.Counters.counter Obs.Counters.global "sample.generated"
let obs_kept = Obs.Counters.counter Obs.Counters.global "sample.kept"
let obs_pruned = Obs.Counters.counter Obs.Counters.global "sample.pruned"

let obs_checks =
  Obs.Counters.counter Obs.Counters.global "sample.dominance_checks"

let obs_skipped =
  Obs.Counters.counter Obs.Counters.global "sample.pairs_skipped"

(* Per-edge model bindings: the (r, c) canonical form per wire width
   when wire parasitics vary ([||] otherwise) and the (cap, delay)
   canonical-form template per library buffer.  Pure functions of the
   model and the edge's device ids, built at the op that lifts through
   the edge. *)
type edge_forms = {
  ef_wire : (Linform.t * Linform.t) array;
  ef_buf : (Linform.t * Linform.t) array;
}

(* ---------- the prune kernel ----------

   Lift and merge both prune through [prune]: candidates are described
   by a row generator [gen c dl dr off] (writing candidate [c]'s
   per-sample load and RAT to [dl] / [dr] from [off]) and by [nkeys]
   keys staged per candidate before the sweep, at [nkeys * c]:
   fl-summed mean load and mean RAT (the sort keys), power, and a
   sketch — min load, max load, min RAT, max RAT.  Rows are never
   staged as a block: a row is generated into the kept block at the
   next free slot when the sweep first needs it (a row compare, or
   keeping it), so the rows the sweep scans as dominators sit
   contiguously in kept order, their keys beside them. *)

let nkeys = 7

(* Candidate [c]'s keys from its row at [off].  The sums run in sample
   order from 0.0: the sort keys' bits, hence the kept order, depend on
   it. *)
let record_keys keys ~k c (dl : float array) (dr : float array) off ~power =
  let l0 = dl.(off) and r0 = dr.(off) in
  let sl = ref 0.0 and sr = ref 0.0 in
  let lmin = ref l0 and lmax = ref l0 and rmin = ref r0 and rmax = ref r0 in
  for t = off to off + k - 1 do
    let l = dl.(t) and r = dr.(t) in
    sl := !sl +. l;
    sr := !sr +. r;
    if l < !lmin then lmin := l;
    if l > !lmax then lmax := l;
    if r < !rmin then rmin := r;
    if r > !rmax then rmax := r
  done;
  let o = nkeys * c in
  keys.(o) <- !sl /. float_of_int k;
  keys.(o + 1) <- !sr /. float_of_int k;
  keys.(o + 2) <- power;
  keys.(o + 3) <- !lmin;
  keys.(o + 4) <- !lmax;
  keys.(o + 5) <- !rmin;
  keys.(o + 6) <- !rmax

(* Prune [n] candidates (keys staged) down to a fresh frontier by
   per-sample dominance counting against the [need] threshold, kept in
   sweep order; [choice c] builds a kept candidate's trail.  Under a
   power-aware objective the comparator additionally requires the
   dominator to cost no more energy ({!Bufins.Dominance.power_le} at
   [eps]), with raw power ascending as the ε-independent sort
   tie-break, so the kept set is the (load, RAT, power) Pareto
   frontier.  [skipped] counts candidates a caller dropped before
   staging because they provably die here (the merge pair filter);
   the counters report them as generated and pruned.  [check_time]
   (the budget's deadline) runs once per 1024 swept candidates: one
   sweep over a blown-up power-aware frontier can take minutes, and
   the deadline must trip inside it, not after it.

   The sweep is the greedy scan over kept candidates that
   {!Bufins.Dominance.sweep} runs, so kept set and kept order are that
   sweep's.  Below K ([Scan_kept]) it scans the kept candidates newest
   first.  At need = K full dominance in every sample rules out NaN in
   both rows and implies that every order statistic of the dominator's
   rows ties-or-beats the candidate's, and that its mean RAT is not
   below the candidate's (fl(x + y) is monotone in each argument while
   the sums stay numbers).  So at need = K the kept slots are indexed
   by mean RAT, descending (NaN means first: a NaN mean rejects
   nothing), and a candidate scans only the prefix of that index whose
   mean RAT is not below its own — all of it when its own mean is NaN;
   an empty prefix keeps it outright.  The verdict is "some kept row
   dominates", which no scan order changes.  A pair failing the sketch
   test is rejected without touching a row; below K a dominator may
   lose in some samples, so neither the index nor the sketch test is
   used there.  A row compare first probes the sample where the
   previous compare failed; the verdict is a count over all samples,
   so the probe order changes no result. *)
let prune ar ~k ~need ~power_aware ~eps ~check_time ?(skipped = 0) keys ~n ~gen
    ~choice =
  if (n <= 1 && skipped = 0) || need > k then
    Array.init n (fun c ->
        let load = Array.make k 0.0 and rat = Array.make k 0.0 in
        gen c load rat 0;
        { load; rat; power = keys.((nkeys * c) + 2); choice = choice c })
  else begin
    let obs = Obs.Control.on () in
    let t0 = if obs then Obs.Span.now_ns () else 0 in
    let idx = Sarena.perm ar n in
    for i = 0 to n - 1 do
      idx.(i) <- i
    done;
    (* Mean load ascending, mean RAT descending: the stable order the
       canonical pruner uses, so exact duplicates keep the same
       representative.  The power path adds raw power ascending — an
       ε-independent order, so growing ε can only merge buckets and
       shrink the kept set. *)
    Sarena.sort_prefix ar idx n ~cmp:(fun a b ->
        let a = nkeys * a and b = nkeys * b in
        let c = Float.compare keys.(a) keys.(b) in
        if c <> 0 then c
        else begin
          let c = Float.compare keys.(b + 1) keys.(a + 1) in
          if c <> 0 || not power_aware then c
          else Float.compare keys.(a + 2) keys.(b + 2)
        end);
    let exact = need >= k in
    let kept = Sarena.kept ar n in
    (* The kept block: rows at slot [q] of [kl] / [kr] (stride K), their
       keys at slot [q] of [kk] (stride [nkeys]).  At need = K, [order]
       lists the kept slots by mean RAT: the [nnan] NaN means first,
       then descending, equal means in kept order. *)
    let kl = ref (Sarena.keep_load ar) and kr = ref (Sarena.keep_rat ar) in
    let kk = ref (Sarena.keep_keys ar) in
    let order = if exact then Sarena.order ar n else [||] in
    let nkept = ref 0 and nnan = ref 0 in
    let checks = ref 0 and hint = ref 0 in
    (* Does kept row [q] dominate the candidate row at offset [io]? *)
    let row_dominates q io =
      let kl = !kl and kr = !kr in
      let jo = q * k in
      let h = !hint in
      if exact then
        kl.(jo + h) <= kl.(io + h)
        && kr.(jo + h) >= kr.(io + h)
        && begin
          let t = ref 0 in
          while
            !t < k
            && kl.(jo + !t) <= kl.(io + !t)
            && kr.(jo + !t) >= kr.(io + !t)
          do
            incr t
          done;
          if !t < k then hint := !t;
          !t >= k
        end
      else begin
        let pass t = kl.(jo + t) <= kl.(io + t) && kr.(jo + t) >= kr.(io + t) in
        (* Count with early exit both ways: [left] samples unvisited. *)
        let count = ref (if pass h then 1 else 0) in
        let left = ref (k - 1) and t = ref 0 in
        while !count < need && !count + !left >= need do
          if !t <> h then begin
            if pass !t then incr count else hint := !t;
            decr left
          end;
          incr t
        done;
        !count >= need
      end
    in
    for s = 0 to n - 1 do
      if s land 1023 = 1023 then check_time ();
      let c = idx.(s) in
      let co = nkeys * c in
      let mrc = keys.(co + 1) and pwc = keys.(co + 2) in
      let lminc = keys.(co + 3) and lmaxc = keys.(co + 4) in
      let rminc = keys.(co + 5) and rmaxc = keys.(co + 6) in
      let q = !nkept in
      if
        nkeys * (q + 1) > Array.length !kk || (q + 1) * k > Array.length !kl
      then begin
        Sarena.reserve_keep ar ~row:k ~keys:nkeys (q + 1);
        kl := Sarena.keep_load ar;
        kr := Sarena.keep_rat ar;
        kk := Sarena.keep_keys ar
      end;
      let io = q * k and kk = !kk in
      let staged = ref false in
      (* The kept slots to scan, from the last down: at need = K the
         first [len] entries of [order] — those whose mean RAT is not
         below [mrc], closest last — and [at] is where the candidate
         enters [order] if kept; below K every slot, newest last. *)
      let at = ref q in
      let len =
        if not exact then q
        else if Float.is_nan mrc then begin
          at := !nnan;
          q
        end
        else begin
          let lo = ref !nnan and hi = ref q in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if kk.((nkeys * order.(mid)) + 1) < mrc then hi := mid
            else lo := mid + 1
          done;
          at := !lo;
          !lo
        end
      in
      let dominated = ref false and x = ref (len - 1) in
      while (not !dominated) && !x >= 0 do
        let p = if exact then order.(!x) else !x in
        let o = nkeys * p in
        incr checks;
        if
          ((not power_aware) || Bufins.Dominance.power_le ~eps kk.(o + 2) pwc)
          && ((not exact)
             || kk.(o + 3) <= lminc
                && kk.(o + 4) <= lmaxc
                && kk.(o + 5) >= rminc
                && kk.(o + 6) >= rmaxc)
        then begin
          if not !staged then begin
            gen c !kl !kr io;
            staged := true
          end;
          dominated := row_dominates p io
        end;
        decr x
      done;
      if not !dominated then begin
        if not !staged then gen c !kl !kr io;
        Array.blit keys co kk (nkeys * q) nkeys;
        kept.(q) <- c;
        nkept := q + 1;
        if exact then begin
          let at = !at in
          Array.blit order at order (at + 1) (q - at);
          order.(at) <- q;
          if Float.is_nan mrc then incr nnan
        end
      end
    done;
    let nkept = !nkept and kl = !kl and kr = !kr in
    let out =
      Array.init nkept (fun s ->
          let c = kept.(s) in
          {
            load = Array.sub kl (s * k) k;
            rat = Array.sub kr (s * k) k;
            power = keys.((nkeys * c) + 2);
            choice = choice c;
          })
    in
    if obs then begin
      Obs.Counters.incr obs_generated (n + skipped);
      Obs.Counters.incr obs_kept nkept;
      Obs.Counters.incr obs_pruned (n + skipped - nkept);
      if skipped > 0 then Obs.Counters.incr obs_skipped skipped;
      Obs.Counters.incr obs_checks !checks;
      Obs.Counters.observe Obs.Counters.global "sample.frontier" ~lo:0.0
        ~hi:1024.0 ~bins:64
        (float_of_int nkept);
      Obs.Span.record ~name:"prune.sample" ~cat:"sample" ~t0_ns:t0
    end;
    out
  end

let sweep_rows ~k ~need ~power_aware ~eps ~check_time ~load ~rat ~power =
  let n = Array.length power in
  let ar = Sarena.get () in
  let keys = Sarena.keys ar (nkeys * n) in
  for c = 0 to n - 1 do
    record_keys keys ~k c load rat (c * k) ~power:power.(c)
  done;
  let out =
    prune ar ~k ~need ~power_aware ~eps ~check_time keys ~n
      ~gen:(fun c dl dr off ->
        Array.blit load (c * k) dl off k;
        Array.blit rat (c * k) dr off k)
      ~choice:(fun c -> Bufins.Sol.At_sink c)
  in
  Array.map
    (fun s ->
      match s.choice with Bufins.Sol.At_sink c -> c | _ -> assert false)
    out

(* Stage and prune one edge lift into a dual-polarity frontier:
   per-width wired rows (exact per-sample Elmore) for both parities,
   then per output side its own wired rows reversed, one buffered
   variant per same-parity (non-inverting) type for each drivable
   wired row of that side, and one per parity-flipping (inverting)
   type for each drivable wired row of the opposite side.  [forms]
   carries the edge's model bindings; row generation order replicates
   the canonical engine — wired rows reversed, then buffered,
   wired-row-major — so duplicate survival matches.

   Both parities' wired rows share the arena's A stage (even rows
   first).  Each output side describes its candidates by their source
   (a wired row, or a wired row and a buffer type), stages their keys
   and prunes to a fresh frontier; the sweep regenerates a candidate's
   row from the A stage only when it needs it.

   [convex] (Convex_auto insertion at need = k, i.e. relax = 1)
   pre-filters each (type, source-parity) block: a drivable wired row
   whose per-sample buffered score rat − R_b·load is tie-or-beaten in
   every sample by an earlier-or-strictly-better row of the same
   block yields a buffered row that full per-sample dominance
   provably drops — the materialised rows differ from the scores by
   the same per-sample T_b shift and fl(x − y) is monotone in x — so
   skipping its generation changes no output byte, only the candidate
   count fed to the quadratic pruning pass.  The pre-filter is
   quadratic in the block too, so it reads [check_time] every 64
   rows. *)
let lift_rows config ~matrix ~k ~need ~power_aware ~eps ~check_time ~energies
    ~convex ~same_types ~flip_types ~forms ~child ~length (f : frontier) =
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let ar = Sarena.get () in
  let nlib = Array.length config.library in
  let ns_ev = Array.length f.ev and ns_od = Array.length f.od in
  let nwid = Array.length config.wires in
  let nw_ev = nwid * ns_ev and nw_od = nwid * ns_od in
  let ntot = nw_ev + nw_od in
  let al = Sarena.a_load ar (ntot * k) in
  let arr = Sarena.a_rat ar (ntot * k) in
  let ac = Sarena.a_choice ar ntot ~dummy:(Bufins.Sol.At_sink 0) in
  (* Per-width r·L and c·L as K-vectors (constant rows when wire
     variation is off). *)
  let rl = Array.make (nwid * k) 0.0 in
  let cl = Array.make (nwid * k) 0.0 in
  if Array.length forms.ef_wire > 0 then
    for w = 0 to nwid - 1 do
      let r_form, c_form = forms.ef_wire.(w) in
      Matrix.eval_into matrix r_form rl ~off:(w * k);
      Matrix.eval_into matrix c_form cl ~off:(w * k);
      for j = 0 to k - 1 do
        rl.((w * k) + j) <- rl.((w * k) + j) *. length;
        cl.((w * k) + j) <- cl.((w * k) + j) *. length
      done
    done
  else
    for w = 0 to nwid - 1 do
      let wire = config.wires.(w) in
      let r = wire.Device.Wire_lib.res_per_um *. length in
      let c = Device.Wire_lib.wire_cap wire ~length in
      for j = 0 to k - 1 do
        rl.((w * k) + j) <- r;
        cl.((w * k) + j) <- c
      done
    done;
  (* Wired rows (Eq. 33-34, exact per sample): load' = load + cL,
     rat' = rat − rL·load − ½·rL·cL.  Even-parity rows first, then
     odd, each side width-major. *)
  let wml = Array.make ntot 0.0 in
  let wpw = Array.make ntot 0.0 in
  let stage_side ~base ~ns (sols : sol array) =
    for lrow = 0 to (nwid * ns) - 1 do
      let row = base + lrow in
      let width = lrow / ns in
      let s = sols.(lrow mod ns) in
      let ro = row * k and wo = width * k in
      let sl = ref 0.0 in
      for j = 0 to k - 1 do
        let rlj = rl.(wo + j) and clj = cl.(wo + j) in
        let ld = s.load.(j) +. clj in
        let rt =
          s.rat.(j) -. (rl.(wo + j) *. s.load.(j)) -. (0.5 *. rlj *. clj)
        in
        al.(ro + j) <- ld;
        arr.(ro + j) <- rt;
        sl := !sl +. ld
      done;
      wml.(row) <- !sl /. float_of_int k;
      wpw.(row) <- s.power;
      ac.(row) <- Bufins.Sol.Wire { node = child; width; from = s.choice }
    done
  in
  stage_side ~base:0 ~ns:ns_ev f.ev;
  stage_side ~base:nw_ev ~ns:ns_od f.od;
  (* Buffer templates per (site, type): cb and tb as K-vectors. *)
  let cb = Array.make (nlib * k) 0.0 in
  let tb = Array.make (nlib * k) 0.0 in
  let res = Array.make nlib 0.0 in
  for bi = 0 to nlib - 1 do
    let cb_form, tb_form = forms.ef_buf.(bi) in
    Matrix.eval_into matrix cb_form cb ~off:(bi * k);
    Matrix.eval_into matrix tb_form tb ~off:(bi * k);
    res.(bi) <- config.library.(bi).Device.Buffer.res_kohm
  done;
  let drivable row =
    match config.load_limit with
    | None -> true
    | Some limit -> wml.(row) <= limit
  in
  let has_flip = Array.length flip_types > 0 in
  let od_out = has_flip || nw_od > 0 in
  (* Convex pre-filter flags, indexed [bi * ntot + row]. *)
  let drop = if convex then Array.make (nlib * ntot) false else [||] in
  let prefilter ~lo ~hi bi =
    if convex && hi - lo > 1 then begin
      let rows = Array.make (hi - lo) 0 in
      let nr = ref 0 in
      for row = lo to hi - 1 do
        if drivable row then begin
          rows.(!nr) <- row;
          incr nr
        end
      done;
      let nr = !nr in
      if nr > 1 then begin
        let r = res.(bi) in
        let sc = Array.make (nr * k) 0.0 in
        for x = 0 to nr - 1 do
          let ro = rows.(x) * k and xo = x * k in
          for j = 0 to k - 1 do
            sc.(xo + j) <- arr.(ro + j) -. (r *. al.(ro + j))
          done
        done;
        for x = 0 to nr - 1 do
          if x land 63 = 63 then check_time ();
          let xo = x * k in
          let dead = ref false in
          let y = ref 0 in
          while (not !dead) && !y < nr do
            (if !y <> x then begin
               let yo = !y * k in
               let ge = ref true and gt = ref false in
               let j = ref 0 in
               while !ge && !j < k do
                 if sc.(yo + !j) < sc.(xo + !j) then ge := false
                 else if sc.(yo + !j) > sc.(xo + !j) then gt := true;
                 incr j
               done;
               (* Drop x when y ties-or-beats it everywhere and is
                  either strictly better somewhere or earlier (the
                  earliest of an equal class survives, matching the
                  stable sort's pick). *)
               if !ge && (!gt || !y < x) then dead := true
             end);
            incr y
          done;
          if !dead then drop.(bi * ntot + rows.(x)) <- true
        done
      end
    end
  in
  if convex then begin
    Array.iter
      (fun bi ->
        prefilter ~lo:0 ~hi:nw_ev bi;
        if od_out then prefilter ~lo:nw_ev ~hi:ntot bi)
      same_types;
    Array.iter
      (fun bi ->
        prefilter ~lo:nw_ev ~hi:ntot bi;
        if od_out then prefilter ~lo:0 ~hi:nw_ev bi)
      flip_types
  end;
  let keep bi row =
    drivable row && ((not convex) || not drop.((bi * ntot) + row))
  in
  let count_block ~lo ~hi types =
    let c = ref 0 in
    Array.iter
      (fun bi ->
        for row = lo to hi - 1 do
          if keep bi row then incr c
        done)
      types;
    !c
  in
  (* Candidate sources: [row * stride + bi + 1], bi = -1 for the wired
     row itself. *)
  let stride = nlib + 1 in
  (* Eq. 35-36 per sample for a buffered row: rat' = rat − R_b·load −
     T_b, load' = C_b. *)
  let gen_buffered row bi (dl : float array) (dr : float array) off =
    let ro = row * k and bo = bi * k in
    let r = res.(bi) in
    for j = 0 to k - 1 do
      dl.(off + j) <- cb.(bo + j);
      dr.(off + j) <- arr.(ro + j) -. (r *. al.(ro + j)) -. tb.(bo + j)
    done
  in
  (* Build one output side: wired rows [wlo, whi) reversed, then
     buffered rows — same-parity types over [wlo, whi), flip types
     over the opposite block [xlo, xhi), wired-row-major in library
     order within each block. *)
  let build_side ~wlo ~whi ~xlo ~xhi =
    let nw_side = whi - wlo in
    let ncand =
      nw_side + count_block ~lo:wlo ~hi:whi same_types
      + count_block ~lo:xlo ~hi:xhi flip_types
    in
    if ncand = 0 then [||]
    else begin
      let keys = Sarena.keys ar (nkeys * ncand) in
      let cand = Sarena.cand ar ncand in
      for lrow = 0 to nw_side - 1 do
        let row = wlo + lrow in
        let c = nw_side - 1 - lrow in
        cand.(c) <- row * stride;
        record_keys keys ~k c al arr (row * k) ~power:wpw.(row)
      done;
      let sl = Sarena.row_load ar k and sr = Sarena.row_rat ar k in
      let next = ref nw_side in
      let emit_block ~lo ~hi types =
        for row = lo to hi - 1 do
          Array.iter
            (fun bi ->
              if keep bi row then begin
                let c = !next in
                cand.(c) <- (row * stride) + bi + 1;
                gen_buffered row bi sl sr 0;
                record_keys keys ~k c sl sr 0
                  ~power:(wpw.(row) +. energies.(bi));
                incr next
              end)
            types
        done
      in
      emit_block ~lo:wlo ~hi:whi same_types;
      emit_block ~lo:xlo ~hi:xhi flip_types;
      let out =
        prune ar ~k ~need ~power_aware ~eps ~check_time keys ~n:ncand
          ~gen:(fun c dl dr off ->
            let row = cand.(c) / stride and bi = (cand.(c) mod stride) - 1 in
            if bi < 0 then begin
              Array.blit al (row * k) dl off k;
              Array.blit arr (row * k) dr off k
            end
            else gen_buffered row bi dl dr off)
          ~choice:(fun c ->
            let row = cand.(c) / stride and bi = (cand.(c) mod stride) - 1 in
            if bi < 0 then ac.(row)
            else
              Bufins.Sol.Buffered
                { node = child; buffer = bi; from = ac.(row) })
      in
      if obs then begin
        let gen = Array.make nlib 0 and kept = Array.make nlib 0 in
        for c = nw_side to ncand - 1 do
          let bi = (cand.(c) mod stride) - 1 in
          gen.(bi) <- gen.(bi) + 1
        done;
        Array.iter
          (fun s ->
            match s.choice with
            | Bufins.Sol.Buffered { node; buffer; _ } when node = child ->
              kept.(buffer) <- kept.(buffer) + 1
            | _ -> ())
          out;
        Array.iteri
          (fun bi (b : Device.Buffer.t) ->
            if gen.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("sample.type." ^ b.Device.Buffer.name ^ ".generated")
                gen.(bi);
            if kept.(bi) > 0 then
              Obs.Counters.add Obs.Counters.global
                ("sample.type." ^ b.Device.Buffer.name ^ ".kept")
                kept.(bi))
          config.library
      end;
      out
    end
  in
  let ev = build_side ~wlo:0 ~whi:nw_ev ~xlo:nw_ev ~xhi:ntot in
  let od =
    if not od_out then [||]
    else build_side ~wlo:nw_ev ~whi:ntot ~xlo:0 ~xhi:nw_ev
  in
  if obs then Obs.Span.record ~name:"lift" ~cat:"sample" ~t0_ns:t0;
  { ev; od }

(* ---------- the merge pair filter ----------

   At need = K the sweep keeps exactly the candidates that no
   earlier-sorted candidate dominates: dominance in every sample (at
   no more power) is transitive, so a candidate dominated by a dropped
   one is dominated by whichever kept one dropped it.  A merge pair
   that provably has a dominator sorting strictly before it can
   therefore be skipped — neither its keys nor its row built — without
   changing any kept row, the kept order (the stable sort keeps the
   survivors' relative order) or any choice trail: whatever the
   skipped pair would have dominated, its dominator dominates too, and
   that dominator is either kept or, by the same argument on a
   strictly earlier candidate, dominated by a kept one.

   Pair (i, j) has dominator (i', j) when A row i' has
   - load ≤ row i's in every sample: fl(x + y) is monotone, so the
     pair loads compare the same way.  The filter asks the sketch
     test max load(i') ≤ min load(i);
   - RAT ≥ row j's in every sample ("i' covers j"): then (i', j) has
     RAT rb_j ≥ min(ra_i, rb_j) in every sample;
   - power ≤ row i's, under a power-aware objective: fl(x + y) and
     [power_le] are both monotone;
   - a mean load below row i's by more than twice the rounding error
     of the pair keys' fl sums and quotient, so (i', j) sorts strictly
     before (i, j) whatever partner j is.
   The mirror rule takes a B row j' against A row i.  Rows with a
   non-finite sample take no part (a NaN fails every comparison), nor
   rows whose absolute load sum could overflow a pair sum.  The rows
   i' that can replace i form an na-bit set, the rows i' that cover j
   another, so a pair costs one bitset intersection per rule. *)

let nsum = 6

(* Row [x]'s summary at [nsum * x]: absolute load sum ([infinity] for a
   row that takes no part), fl-summed load in sample order, and the
   min/max load and RAT sketch. *)
let summarise ~k (rows : sol array) sums ~off =
  Array.iteri
    (fun x s ->
      let la = s.load and ra = s.rat in
      let finite = ref true and sl = ref 0.0 and sa = ref 0.0 in
      let lmin = ref la.(0) and lmax = ref la.(0) in
      let rmin = ref ra.(0) and rmax = ref ra.(0) in
      for t = 0 to k - 1 do
        let l = la.(t) and r = ra.(t) in
        if not (Float.is_finite l && Float.is_finite r) then finite := false;
        sl := !sl +. l;
        sa := !sa +. Float.abs l;
        if l < !lmin then lmin := l;
        if l > !lmax then lmax := l;
        if r < !rmin then rmin := r;
        if r > !rmax then rmax := r
      done;
      let o = nsum * (off + x) in
      sums.(o) <-
        (if !finite && !sa < Float.max_float /. 8.0 then !sa else infinity);
      sums.(o + 1) <- !sl;
      sums.(o + 2) <- !lmin;
      sums.(o + 3) <- !lmax;
      sums.(o + 4) <- !rmin;
      sums.(o + 5) <- !rmax)
    rows

(* Bitsets of 63-bit words. *)
let words n = (n + 62) / 63

let set_bit bits base x =
  let q = base + (x / 63) in
  bits.(q) <- bits.(q) lor (1 lsl (x mod 63))

let has_bit bits base x = bits.(base + (x / 63)) land (1 lsl (x mod 63)) <> 0

let meets bits p q w =
  let hit = ref false and t = ref 0 in
  while (not !hit) && !t < w do
    hit := bits.(p + !t) land bits.(q + !t) <> 0;
    incr t
  done;
  !hit

(* Set bit x' of row x's [w]-word set at [p] (and of the union at [u])
   when x' can replace x against any partner whose absolute load sum
   is at most [other]; returns whether any bit was set.  The mean-load
   margin: a pair's fl load sum (K roundings of x + y, K − 1 of the
   running sum) is within about K·ε/2 of the exact sum, relative to
   the pair's absolute load sum; the quotient by K and the rows' own fl
   sums add a few ε/2 more.  [gap] times the rows' and twice the
   partner's absolute sums (plus [tiny]) is over twice that, so a
   larger difference of the rows' sums makes the fl key of (x', y)
   strictly smaller than that of (x, y). *)
let replacements ~k ~power_aware (xs : sol array) sums ~off ~other bits ~p ~u
    ~w =
  let gap = 2.0 *. float_of_int (k + 2) *. epsilon_float in
  (* Keeps the quotient's rounding relative near underflow. *)
  let tiny = float_of_int k *. Float.min_float in
  let any = ref false in
  Array.iteri
    (fun x sx ->
      let ox = nsum * (off + x) in
      if sums.(ox) < infinity then
        Array.iteri
          (fun x' sx' ->
            let o' = nsum * (off + x') in
            if
              sums.(o' + 3) <= sums.(ox + 2)
              && ((not power_aware) || sx'.power <= sx.power)
              && sums.(ox + 1) -. sums.(o' + 1)
                 > (gap *. (sums.(ox) +. sums.(o') +. (2.0 *. other))) +. tiny
            then begin
              set_bit bits (p + (x * w)) x';
              set_bit bits u x';
              any := true
            end)
          xs)
    xs;
  !any

(* Set bit x' of row y's [w]-word set at [c] when x' (a row of the
   union at [u]) has RAT at least y's in every sample: by sketch when
   it decides, else by an early-exit row compare. *)
let covers ~k (xs : sol array) ~xoff (ys : sol array) ~yoff sums bits ~u ~c ~w =
  Array.iteri
    (fun y sy ->
      let oy = nsum * (yoff + y) in
      if sums.(oy) < infinity then begin
        let ry = sy.rat in
        let rminy = sums.(oy + 4) and rmaxy = sums.(oy + 5) in
        Array.iteri
          (fun x' sx' ->
            if has_bit bits u x' then begin
              let ox = nsum * (xoff + x') in
              if
                sums.(ox + 4) >= rmaxy
                || sums.(ox + 5) >= rmaxy
                   && sums.(ox + 4) >= rminy
                   &&
                   let rx = sx'.rat and t = ref 0 in
                   while !t < k && rx.(!t) >= ry.(!t) do
                     incr t
                   done;
                   !t >= k
              then set_bit bits (c + (y * w)) x'
            end)
          xs
      end)
    ys

(* The pair filter of merge [a] × [b] at need = K: [skip i j] holds
   when pair (i, j) provably dies in the sweep. *)
let pair_filter ar ~k ~power_aware (a : sol array) (b : sol array) =
  let na = Array.length a and nb = Array.length b in
  let sums = Sarena.sums ar (nsum * (na + nb)) in
  summarise ~k a sums ~off:0;
  summarise ~k b sums ~off:na;
  let abs_max ~off n =
    let m = ref 0.0 in
    for x = off to off + n - 1 do
      let v = sums.(nsum * x) in
      if v < infinity && v > !m then m := v
    done;
    !m
  in
  let wa = words na and wb = words nb in
  (* Replacement sets, their union and cover sets, per side. *)
  let pa = 0 in
  let ua = pa + (na * wa) in
  let ca = ua + wa in
  let pb = ca + (nb * wa) in
  let ub = pb + (nb * wb) in
  let cb = ub + wb in
  let len = cb + (na * wb) in
  let bits = Sarena.bits ar len in
  Array.fill bits 0 len 0;
  let any_a =
    replacements ~k ~power_aware a sums ~off:0 ~other:(abs_max ~off:na nb)
      bits ~p:pa ~u:ua ~w:wa
  in
  let any_b =
    replacements ~k ~power_aware b sums ~off:na ~other:(abs_max ~off:0 na)
      bits ~p:pb ~u:ub ~w:wb
  in
  if any_a then covers ~k a ~xoff:0 b ~yoff:na sums bits ~u:ua ~c:ca ~w:wa;
  if any_b then covers ~k b ~xoff:na a ~yoff:0 sums bits ~u:ub ~c:cb ~w:wb;
  fun i j ->
    (any_a && meets bits (pa + (i * wa)) (ca + (j * wa)) wa)
    || (any_b && meets bits (pb + (j * wb)) (cb + (i * wb)) wb)

(* Subtree merge: the cross product with an exact per-sample min,
   staged lazily.  One pass over the pairs, in the canonical cross
   merge's newest-first row order (so duplicate survival is stable) and
   with the budget [check] per pair, computes each row's keys without
   storing the row — except for the pairs the pair filter skips at
   need = K; the staged pairs are then compacted in order, and the
   sweep regenerates the rows it needs and builds [Merged] trails for
   the kept ones only.

   The per-sample min is [Float.min]: the loops take the strict [<]
   cases inline and, on a tie or NaN anywhere in the row (where only
   [Float.min] pins the sign of zero and which NaN), redo the row with
   [Float.min] itself.  No call inside the loop keeps its accumulators
   in registers. *)
let merge_rows ~k ~need ~power_aware ~eps ~node ~check ~check_time
    (a : sol array) (b : sol array) =
  let na = Array.length a and nb = Array.length b in
  let ncand = na * nb in
  if ncand = 0 then [||]
  else begin
    let ar = Sarena.get () in
    let skip =
      if need = k && ncand > 1 then pair_filter ar ~k ~power_aware a b
      else fun _ _ -> false
    in
    let keys = Sarena.keys ar (nkeys * ncand) in
    (* Slot [c] first holds the row-major number [ncand - 1 - c] of its
       pair, or -1 if the pair is skipped; the staged pairs are then
       moved down in order, so slot [c] names the [c]th staged pair. *)
    let cand = Sarena.cand ar ncand in
    let count = ref 0 in
    for i = 0 to na - 1 do
      let la = a.(i).load and ra = a.(i).rat in
      for j = 0 to nb - 1 do
        incr count;
        check !count;
        if !count land 1023 = 0 then check_time ();
        let c = ncand - !count in
        if skip i j then cand.(c) <- -1
        else begin
          cand.(c) <- (i * nb) + j;
          let lb = b.(j).load and rb = b.(j).rat in
          (* [record_keys] fused with the row's generation. *)
          let l0 = la.(0) +. lb.(0) and r0 = Float.min ra.(0) rb.(0) in
          let sl = ref 0.0 and sr = ref 0.0 in
          let lmin = ref l0 and lmax = ref l0 in
          let rmin = ref r0 and rmax = ref r0 in
          let strict = ref true in
          for t = 0 to k - 1 do
            let l = la.(t) +. lb.(t) in
            let x = ra.(t) and y = rb.(t) in
            let r =
              if x < y then x
              else if y < x then y
              else begin
                strict := false;
                x
              end
            in
            sl := !sl +. l;
            sr := !sr +. r;
            if l < !lmin then lmin := l;
            if l > !lmax then lmax := l;
            if r < !rmin then rmin := r;
            if r > !rmax then rmax := r
          done;
          if not !strict then begin
            sr := 0.0;
            rmin := r0;
            rmax := r0;
            for t = 0 to k - 1 do
              let r = Float.min ra.(t) rb.(t) in
              sr := !sr +. r;
              if r < !rmin then rmin := r;
              if r > !rmax then rmax := r
            done
          end;
          let o = nkeys * c in
          keys.(o) <- !sl /. float_of_int k;
          keys.(o + 1) <- !sr /. float_of_int k;
          keys.(o + 2) <- a.(i).power +. b.(j).power;
          keys.(o + 3) <- !lmin;
          keys.(o + 4) <- !lmax;
          keys.(o + 5) <- !rmin;
          keys.(o + 6) <- !rmax
        end
      done
    done;
    let n = ref 0 in
    for c = 0 to ncand - 1 do
      if cand.(c) >= 0 then begin
        if !n < c then begin
          cand.(!n) <- cand.(c);
          Array.blit keys (nkeys * c) keys (nkeys * !n) nkeys
        end;
        incr n
      end
    done;
    let n = !n in
    if Obs.Control.on () then Obs.Counters.incr obs_merged ncand;
    let gen c (dl : float array) (dr : float array) off =
      let m = cand.(c) in
      let sa = a.(m / nb) and sb = b.(m mod nb) in
      let la = sa.load and lb = sb.load and ra = sa.rat and rb = sb.rat in
      let strict = ref true in
      for t = 0 to k - 1 do
        dl.(off + t) <- la.(t) +. lb.(t);
        let x = ra.(t) and y = rb.(t) in
        dr.(off + t) <-
          (if x < y then x
           else if y < x then y
           else begin
             strict := false;
             x
           end)
      done;
      if not !strict then
        for t = 0 to k - 1 do
          dr.(off + t) <- Float.min ra.(t) rb.(t)
        done
    in
    prune ar ~k ~need ~power_aware ~eps ~check_time ~skipped:(ncand - n) keys
      ~n ~gen
      ~choice:(fun c ->
        let m = cand.(c) in
        Bufins.Sol.Merged
          { node; left = a.(m / nb).choice; right = b.(m mod nb).choice })
  end

(* Parity-matched subtree merge: even rows pair with even, odd with
   odd (a merged candidate needs both subtrees at the same parity).
   The odd merge is skipped entirely when both sides are empty, so the
   inverter-free instruction stream is the historical one. *)
let merge_frontiers ~k ~need ~power_aware ~eps ~node ~check ~check_time
    (a : frontier) (b : frontier) =
  let ev =
    merge_rows ~k ~need ~power_aware ~eps ~node ~check ~check_time a.ev b.ev
  in
  let od =
    if Array.length a.od = 0 && Array.length b.od = 0 then [||]
    else
      merge_rows ~k ~need ~power_aware ~eps ~node ~check ~check_time a.od b.od
  in
  { ev; od }

(* Per-node bookkeeping around the frontier computation [f]: budget
   checks, observability, peak/total statistics.  [where] is the
   tape's precompiled budget-check label. *)
let node_wrap ~where ~check_time ~check_count ~peak ~total id f =
  check_time ();
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let front = f () in
  if obs then begin
    Obs.Counters.incr obs_nodes 1;
    Obs.Span.record ~name:"node" ~cat:"sample" ~t0_ns:t0
  end;
  let len = frontier_size front in
  check_count ~where len;
  let rec bump_peak () =
    let cur = Atomic.get peak in
    if len > cur && not (Atomic.compare_and_set peak cur len) then
      bump_peak ()
  in
  bump_peak ();
  ignore (Atomic.fetch_and_add total len);
  Log.debug (fun m -> m "node %d: %d sampled candidates kept" id len);
  front

(* Root-frontier epilogue: load-limit gate, per-sample driver lift,
   yield scoring, result assembly. *)
let finish config ~t_start ~k ~peak ~total ~n root_sols =
  let tech = config.tech in
  let sample_mean v =
    let s = ref 0.0 in
    Array.iter (fun x -> s := !s +. x) v;
    !s /. float_of_int (Array.length v)
  in
  let compliant =
    match config.load_limit with
    | None -> root_sols
    | Some limit ->
      Array.of_list
        (List.filter
           (fun s -> sample_mean s.load <= limit)
           (Array.to_list root_sols))
  in
  let load_limit_met, root_sols =
    if Array.length compliant = 0 then (config.load_limit = None, root_sols)
    else (true, compliant)
  in
  assert (Array.length root_sols > 0);
  let driver_rat s =
    Array.init k (fun j ->
        s.rat.(j) -. (tech.Device.Tech.driver_r *. s.load.(j)))
  in
  let p = Float.max 0.0 (Float.min 1.0 (1.0 -. config.yield)) in
  let score q = Numeric.Stats.percentile q p in
  let best = ref root_sols.(0) in
  let root_rat = ref (driver_rat root_sols.(0)) in
  let best_score = ref (score !root_rat) in
  let root_best_per_sample = Array.copy !root_rat in
  let feasible =
    ref
      (match config.power_objective with
      | Bufins.Dominance.Min_power target -> !best_score >= target
      | _ -> true)
  in
  for i = 1 to Array.length root_sols - 1 do
    let s = root_sols.(i) in
    let q = driver_rat s in
    for j = 0 to k - 1 do
      if q.(j) > root_best_per_sample.(j) then
        root_best_per_sample.(j) <- q.(j)
    done;
    let sc = score q in
    let better =
      match config.power_objective with
      | Bufins.Dominance.Max_yield -> sc > !best_score
      | Bufins.Dominance.Weighted w ->
        sc -. (w *. s.power) > !best_score -. (w *. (!best).power)
      | Bufins.Dominance.Min_power target ->
        (* Minimum power among target-feasible candidates; infeasible
           roots fall back to the best-score pick. *)
        let f = sc >= target in
        if f && not !feasible then true
        else if f <> !feasible then false
        else if f then
          s.power < (!best).power
          || (s.power = (!best).power && sc > !best_score)
        else sc > !best_score
    in
    if better then begin
      best := s;
      root_rat := q;
      best_score := sc;
      match config.power_objective with
      | Bufins.Dominance.Min_power target -> feasible := sc >= target
      | _ -> ()
    end
  done;
  let best = !best and root_rat = !root_rat in
  let buffers =
    List.map
      (fun (node, bi) -> (node, config.library.(bi)))
      (Bufins.Sol.buffers_of_choice best.choice)
  in
  let widths =
    List.map
      (fun (node, wi) -> (node, config.wires.(wi)))
      (Bufins.Sol.widths_of_choice best.choice)
  in
  let summary = Numeric.Stats.summarize root_rat in
  Log.info (fun m ->
      m "done: %d nodes, K=%d, peak %d candidates, %d buffers, RAT@%g%% %.1f"
        n k (Atomic.get peak) (List.length buffers) (100.0 *. config.yield)
        !best_score);
  {
    best;
    root_rat;
    root_best_per_sample;
    buffers;
    widths;
    sampled_mean = summary.Numeric.Stats.mean;
    sampled_std = summary.Numeric.Stats.std;
    rat_at_yield = !best_score;
    load_limit_met;
    stats =
      {
        Bufins.Engine.runtime_s = Unix.gettimeofday () -. t_start;
        peak_candidates = Atomic.get peak;
        total_candidates = Atomic.get total;
        nodes = n;
      };
  }

let run_tape ?pool ?(grain = default_grain) config ~model
    (tape : Compile.Tape.t) =
  let t_start = Unix.gettimeofday () in
  let k = config.samples in
  if k <= 0 then invalid_arg "Sample.Engine.run_tape: samples must be positive";
  let check_time, check_count =
    Bufins.Engine.make_checks config.budget ~t_start
  in
  let n = tape.Compile.Tape.n in
  let peak = Atomic.make 0 in
  let total = Atomic.make 0 in
  let wire_variation = Varmodel.Model.wire_frac model > 0.0 in
  (* Bind the tape to the model exactly as the canonical engine does,
     so the matrix rows a device maps to — and hence the output bytes —
     are independent of task scheduling, and size the shared sample
     matrix to the last bound id. *)
  let nlib = Array.length config.library in
  let nedges = tape.Compile.Tape.edges in
  let ids_per_edge = (if wire_variation then 1 else 0) + nlib in
  let device_base = Bufins.Engine.bind_device_ids ~model ~ids_per_edge tape in
  let regions = Varmodel.Grid.regions (Varmodel.Model.grid model) in
  let max_id =
    if nedges = 0 then regions
    else device_base.(nedges - 1) + ids_per_edge - 1
  in
  let matrix = Matrix.create ~seed:config.seed ~k ~sources:(max_id + 1) in
  (* Rows shared across subtree tasks (inter-die + spatial regions) are
     drawn eagerly before any parallel phase; per-device rows are only
     touched by the task owning the device's edge. *)
  Matrix.prefill matrix ~lo:0 ~hi:regions;
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
  let forms_at e =
    let ef_wire =
      if wire_variation then begin
        let edge_id = device_base.(e) in
        let mx = tape.Compile.Tape.edge_mid_x.(e) in
        let my = tape.Compile.Tape.edge_mid_y.(e) in
        Array.map
          (fun wire ->
            Varmodel.Model.wire_forms model ~edge_id ~x:mx ~y:my
              ~r0:wire.Device.Wire_lib.res_per_um
              ~c0:wire.Device.Wire_lib.cap_per_um)
          config.wires
      end
      else [||]
    in
    let psite = site_at tape.Compile.Tape.edge_site.(e) in
    let buf_base = device_base.(e) + if wire_variation then 1 else 0 in
    let ef_buf =
      Array.init nlib (fun bi ->
          let b = config.library.(bi) in
          let device_id = buf_base + bi in
          let cb_form =
            Varmodel.Model.site_device_form model psite ~device_id
              ~nominal:b.Device.Buffer.cap_ff
          in
          let tb_form =
            Varmodel.Model.site_device_form model psite ~device_id
              ~nominal:b.Device.Buffer.delay_ps
          in
          (cb_form, tb_form))
    in
    { ef_wire; ef_buf }
  in
  (* relax-scaled dominance threshold: a candidate is dropped when a
     competitor ties-or-beats it in at least [need] of the K samples. *)
  let need =
    max 1 (int_of_float (ceil (config.relax *. float_of_int k)))
  in
  let same_types, flip_types =
    Device.Buffer.partition_indices config.library
  in
  let power_aware = Bufins.Dominance.power_aware config.power_objective in
  let eps = config.eps_power in
  let energies = energies_of config in
  (* The convex pre-filter is sound only under full per-sample
     dominance (need = k): relax > 1 disables pruning (brute-force
     reference) and relax < 1 counts partial dominance, where a
     pre-filtered row is not provably dropped.  Power-aware pruning
     also disables it — cheaper-power rows must survive alongside the
     best-timing one. *)
  let convex =
    config.insertion = Bufins.Engine.Convex_auto && need = k
    && not power_aware
  in
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
            {
              ev =
                [|
                  {
                    load = Array.make k cap;
                    rat = Array.make k rat;
                    power = 0.0;
                    choice = Bufins.Sol.At_sink node;
                  };
                |];
              od = [||];
            }
          | _ ->
            let lifted0 = ref empty_frontier and lifted1 = ref empty_frontier in
            let nlift = ref 0 in
            let out = ref empty_frontier in
            for o = o0 to o1 - 1 do
              match ops.(o) with
              | Compile.Tape.Tag_sink _ -> assert false
              | Compile.Tape.Lift_edge _ -> ()
              | Compile.Tape.Insert_site { child; edge } ->
                let front = frontiers.(slot_of.(child)) in
                frontiers.(slot_of.(child)) <- empty_frontier;
                let l =
                  lift_rows config ~matrix ~k ~need ~power_aware ~eps
                    ~check_time ~energies ~convex ~same_types ~flip_types
                    ~forms:(forms_at edge) ~child
                    ~length:tape.Compile.Tape.edge_length.(edge) front
                in
                check_count ~where:tape.Compile.Tape.where_edge.(edge)
                  (frontier_size l);
                if !nlift = 0 then lifted0 := l else lifted1 := l;
                incr nlift;
                out := l
              | Compile.Tape.Merge { node } ->
                let where = tape.Compile.Tape.where_merge.(node) in
                let merged =
                  merge_frontiers ~k ~need ~power_aware ~eps ~node
                    ~check:(check_count ~where) ~check_time !lifted0 !lifted1
                in
                lifted0 := empty_frontier;
                lifted1 := empty_frontier;
                out := merged
            done;
            !out)
  in
  sched.Compile.Tape.run exec_node;
  if Obs.Control.on () then Obs.Span.flush ();
  finish config ~t_start ~k ~peak ~total ~n
    frontiers.(slot_of.(Compile.Tape.root tape)).ev

let run ?pool ?grain config ~model tree =
  run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)
