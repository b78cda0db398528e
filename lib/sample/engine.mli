(** The sampling-based yield engine (Zhang/Li/Schlichtmann, PAPERS.md).

    Runs the same bottom-up buffer-insertion DP as {!Bufins.Engine},
    but evaluates every candidate on a shared matrix of K Monte-Carlo
    process samples ({!Matrix}) instead of propagating canonical
    normal forms: a candidate's load and RAT are K-vectors — its exact
    Elmore values under each sampled process corner — so the engine
    {e measures} timing yield rather than assuming joint normality.

    The frontier is pruned by per-sample dominance counting: candidate
    A is dropped when some competitor ties-or-beats it (load ≤, RAT ≥)
    in at least [ceil(relax · K)] samples.  At [relax = 1] (the
    default) this is exact — a fully dominated candidate can never be
    the per-sample optimum, so the kept frontier's per-sample best
    root RAT is bit-identical to the unpruned brute force
    ([relax > 1], which disables pruning).  [relax < 1] prunes more
    aggressively at the cost of that guarantee.

    Output (assignment, per-sample root RATs, sampled yield figures)
    is byte-identical at any job count and with observability on or
    off: the sample matrix depends only on (seed, source id, K), the
    device-id binding ({!Bufins.Engine.bind_device_ids}) and merge
    order are the canonical engine's, and the pruning sweep is a
    stable sort plus a deterministic scan. *)

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
  samples : int;  (** K: Monte-Carlo samples per candidate *)
  seed : int;  (** seed of the shared sample matrix *)
  relax : float;
      (** dominance threshold as a fraction of K: drop a candidate
          dominated in ≥ ceil(relax · K) samples.  1 = exact full
          dominance; > 1 disables pruning (brute force); < 1 prunes
          approximately. *)
  yield : float;
      (** yield level scored at the root: the best candidate maximises
          the (1 − yield)-quantile of its sampled driver-output RAT *)
  budget : Bufins.Engine.budget;
  load_limit : float option;
      (** same mean-load drive constraint as the canonical engine,
          applied to sample means *)
  insertion : Bufins.Engine.insertion;
      (** [Convex_auto] (the default) pre-filters each buffer type's
          insertion block at [relax = 1]: a wired row whose per-sample
          buffered score is tie-or-beaten everywhere by another row of
          the same block yields a candidate full dominance provably
          drops, so it is never generated.  The surviving rows still go
          through the full pruning pass, so output is byte-identical to
          [Exhaustive]; the filter disengages at [relax ≠ 1], where the
          guarantee does not hold. *)
  power_objective : Bufins.Dominance.objective;
      (** power-aware request objective.  The default
          ({!Bufins.Dominance.Max_yield}) is the historical engine —
          the power axis is carried but never compared.  [Min_power] /
          [Weighted] conjoin {!Bufins.Dominance.power_le} into the
          per-sample dominance test (a (load, RAT, power) Pareto
          frontier), disable the convex pre-filter, and change the
          root scalarisation. *)
  eps_power : float;
      (** ε-dominance bucket width for the power axis; 0 (default) is
          the exact frontier.  Only read under a power-aware
          [power_objective]. *)
  energies : float array option;
      (** per-type energies (fJ) indexed like [library]; [None]
          derives them with {!Device.Buffer.energies}. *)
}

val default_config :
  ?samples:int ->
  ?seed:int ->
  ?relax:float ->
  ?yield:float ->
  ?wire_sizing:bool ->
  unit ->
  config
(** 65 nm tech, the default buffer library, [samples = 256],
    [seed = 1], [relax = 1], [yield = 0.95], [Convex_auto] insertion,
    no budget.  A library mixing repeaters and inverters is handled
    with the same dual-polarity frontiers as the canonical engine:
    merges match inversion parity and the root selects among
    even-parity candidates only.
    @raise Invalid_argument on non-positive [samples] or [relax], or
    [yield] outside (0, 1). *)

type sol = {
  load : float array;  (** per-sample downstream capacitance, fF *)
  rat : float array;  (** per-sample required arrival time, ps *)
  power : float;
      (** accumulated buffer energy, fJ — exact (deterministic per
          assignment), not sampled *)
  choice : Bufins.Sol.choice;
}

type result = {
  best : sol;  (** chosen root candidate (pre-driver samples) *)
  root_rat : float array;
      (** per-sample RAT at the driver input of [best]:
          rat − R_drv · load, sample by sample *)
  root_best_per_sample : float array;
      (** per-sample maximum of the driver-output RAT over the whole
          (compliant) root frontier — the quantity full dominance
          pruning provably preserves, exposed for the brute-force
          comparison test *)
  buffers : (int * Device.Buffer.t) list;
  widths : (int * Device.Wire_lib.t) list;
  sampled_mean : float;  (** mean of [root_rat] *)
  sampled_std : float;  (** sample std of [root_rat] *)
  rat_at_yield : float;
      (** the (1 − yield)-quantile of [root_rat] — the sampled
          counterpart of {!Sta.Yield.rat_at_yield} *)
  load_limit_met : bool;
  stats : Bufins.Engine.stats;
}

val sweep_rows :
  k:int ->
  need:int ->
  power_aware:bool ->
  eps:float ->
  check_time:(unit -> unit) ->
  load:float array ->
  rat:float array ->
  power:float array ->
  int array
(** The prune kernel every lift and merge runs, on [n] explicit
    candidates: [load] and [rat] hold one stride-[k] row per candidate,
    [power] one energy each.  Returns the kept candidates' indices in
    kept order — for [need <= k] and [n >= 2] the greedy sweep in
    (mean load ascending, mean RAT descending[, power ascending])
    stable order, dropping a candidate tie-or-beaten in at least
    [need] samples (and, when [power_aware], at no more
    {!Bufins.Dominance.power_le} energy at [eps]) by an earlier kept
    one; otherwise every index in input order.  The sweep calls
    [check_time] once per 1024 candidates it visits, so the engines'
    deadline can trip inside one long sweep; an exception it raises
    aborts the sweep and leaves the domain's scratch arena reusable. *)

val merge_rows :
  k:int ->
  need:int ->
  power_aware:bool ->
  eps:float ->
  node:int ->
  check:(int -> unit) ->
  check_time:(unit -> unit) ->
  sol array ->
  sol array ->
  sol array
(** [merge_rows ~k ~need ~power_aware ~eps ~node ~check ~check_time a b]
    is one
    subtree merge: the cross product of [a] and [b] (per-sample load
    sum, per-sample [Float.min] RAT, power sum, [Merged] trail at
    [node]) pruned by {!sweep_rows}'s sweep, with pair [(i, j)] at
    candidate index [na·nb − 1 − (i·nb + j)].  [check] runs once per
    pair with the running pair count, [check_time] once per 1024 pairs
    and once per 1024 candidates the sweep visits.  At [need = k] pairs that
    provably die in the sweep are skipped before staging; the result
    is the sweep's over the explicit cross product either way. *)

val default_grain : int

val run_tape :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Compile.Tape.t ->
  result
(** Optimise a compiled tree ({!Compile.Tape.compile}) on K sampled
    process corners.  The tape is bound to [model] by
    {!Bufins.Engine.bind_device_ids} (so the model must be fresh), the
    shared sample matrix is sized to the bound ids, and parallel
    subtree decomposition ({!Compile.Tape.schedule}) and budgets behave
    exactly as in {!Bufins.Engine.run_tape}: the result is
    byte-identical at any job count.  The model's variation mode
    filters which sources the samples see, so a [Nom] model makes
    every sample identical.  The time budget is read at every node,
    every 1024 merge pairs and every 1024 candidates a prune sweep
    visits.
    @raise Bufins.Engine.Budget_exceeded when the configured budget
    trips (the same exception, so serve's deadline mapping applies
    unchanged). *)

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Rctree.Tree.t ->
  result
(** [run ?pool ?grain config ~model tree] is
    [run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)].
    @raise Bufins.Engine.Budget_exceeded when the configured budget
    trips. *)
