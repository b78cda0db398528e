(** The dynamic-programming buffer-insertion engine (§2, §4).

    One engine serves every algorithm in the paper: the variation mode
    comes from the {!Varmodel.Model.t} (NOM = all sensitivities
    dropped, D2D = random + inter-die, WID = everything), and the
    dominance relation from the {!Prune.t} rule.  Candidates are
    propagated bottom-up with the variation-aware key operations of
    §4.2 (Eq. 33-38): wire lift, buffer insertion at the upstream end
    of each edge (one legal position per edge), and subtree merging
    with the tightness-probability statistical minimum.

    Linear rules use the sorted linear merge of Fig. 1 (at most
    [n + m - 1] combinations); the 4P rule must enumerate the full
    [n × m] cross product and prune pairwise, which is what blows it up
    in Table 2 — a {!budget} turns that blow-up into a clean
    {!Budget_exceeded} instead of an out-of-memory. *)

type budget = {
  max_candidates : int option;
      (** cap on any per-node candidate list (checked after pruning and
          on 4P cross products before pruning) *)
  max_seconds : float option;
      (** wall-clock cap for the whole run (CPU time would sum over
          domains and trip early under parallel load) *)
}

val no_budget : budget

(** How the final candidate is chosen at the root, among the pruned
    frontier seen through the driver.  The DP's pruning is ordered by
    means either way (the 2P rule); the objective only scalarises the
    root choice.  [Max_yield y] picks the candidate with the best
    (1 − y)-quantile RAT — the paper's "95% timing yield for RAT"
    figure of merit — and reduces to [Max_mean] for deterministic
    (NOM) forms. *)
type objective = Max_mean | Max_yield of float

(** How the insert-site step generates buffered candidates.

    [Convex_auto] (the default) applies the O(bn²) convex
    pre-selection: for each buffer type, every candidate buffered at a
    site shares one load form, so under a rule whose dominance is a
    pure mean comparison ({!Prune.mean_exact} — the deterministic rule
    and 2P(0.5, 0.5)) at most the wired candidate maximising the
    buffered mean RAT can survive pruning, and only that one is
    generated — the frontier fed to the pruner is [n + b] instead of
    [n + n·b].  The pre-selection computes the buffered mean
    bit-exactly and keeps the earliest maximiser, so the pruned
    frontier (and every output byte) is identical to exhaustive
    generation; it engages only when the rule is mean-exact and the
    library's input caps are pairwise distinct, and silently falls
    back to exhaustive generation otherwise (1P, 4P, 2P with p̄ > 0.5).

    [Exhaustive] always generates the full wired × type product — the
    brute-force reference the convex path is tested against. *)
type insertion = Convex_auto | Exhaustive

type config = {
  tech : Device.Tech.t;
  library : Device.Buffer.t array;
  wires : Device.Wire_lib.t array;
      (** wire-width options per edge; index 0 must be the technology's
          minimum width.  A singleton library means pure buffer
          insertion; more entries enable simultaneous buffer insertion
          and wire sizing (the companion study of reference [8]). *)
  rule : Prune.t;
  budget : budget;
  objective : objective;
  load_limit : float option;
      (** optional slew-style constraint: the maximum (mean) capacitance
          any buffer or the driver may drive, in fF.  Buffered
          candidates violating it are not generated, and the root
          candidate is chosen among compliant ones (falling back to all
          candidates if none comply — reported via
          {!result.load_limit_met}). *)
  insertion : insertion;
  power_objective : Dominance.objective;
      (** power-aware request objective.  The default
          ({!Dominance.Max_yield}) is the historical engine: the power
          axis is carried but never compared, pruning is the total
          order of [rule] alone, and every output byte matches the
          pre-power engine.  [Min_power] / [Weighted] switch pruning to
          the (load, RAT, power) Pareto frontier
          ({!Prune.prune_sub_power}), disable the convex pre-selection
          (which keeps only best-timing rows), and change the root
          scalarisation — see {!Dominance.objective}. *)
  eps_power : float;
      (** ε-dominance knob for the power axis ({!Dominance.power_le}):
          0 (the default) is the exact Pareto frontier; larger values
          merge power buckets of width ε and bound the frontier.  Only
          read under a power-aware [power_objective]. *)
  energies : float array option;
      (** per-type energies (fJ) indexed like [library]; [None] (the
          default) derives them with {!Device.Buffer.energies}.  The
          bench's ε = 0 identity gate overrides with zeros. *)
}

val default_config : ?rule:Prune.t -> ?objective:objective -> ?wire_sizing:bool -> unit -> config
(** 65 nm tech, the default 3-buffer library, the paper's 2P(0.5, 0.5)
    rule, the [Max_yield 0.95] objective, [Convex_auto] insertion and
    no budget.  [wire_sizing] (default false) swaps the singleton
    minimum-width wire library for
    {!Device.Wire_lib.default_library}.

    A library may mix repeaters and inverters
    ({!Device.Buffer.polarity}): the engine then maintains
    dual-polarity frontiers — candidates are typed by the inversion
    parity they deliver to the sinks, merges match parity, inverting
    types flip it, and the root selects among even-parity candidates
    only, so every chosen inverter chain restores sink polarity by
    construction. *)

exception Budget_exceeded of string
(** Raised mid-run when the budget is exhausted; the message says which
    limit tripped and where. *)

type stats = {
  runtime_s : float;        (** wall-clock seconds for the whole run *)
  peak_candidates : int;    (** largest pruned per-node candidate list *)
  total_candidates : int;   (** sum of pruned list sizes over all nodes *)
  nodes : int;
}

type result = {
  root_rat : Linform.t;
      (** RAT at the driver input: best candidate's T − R_drv · L *)
  best : Sol.t;  (** the chosen root candidate (pre-driver forms) *)
  buffers : (int * Device.Buffer.t) list;
      (** chosen assignment: (node id, buffer) means the buffer sits at
          the upstream end of the wire above that node *)
  widths : (int * Device.Wire_lib.t) list;
      (** chosen non-minimum wire widths: (node id, width) sizes the
          wire above that node; edges not listed use width index 0 *)
  load_limit_met : bool;
      (** [true] unless a [load_limit] was configured and no root
          candidate could satisfy it at the driver *)
  stats : stats;
}

val default_grain : int
(** Default subtree-size cutoff for task decomposition (see {!run_tape}). *)

val run_tape :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Compile.Tape.t ->
  result
(** Optimise a compiled tree ({!Compile.Tape.compile}).  The root
    candidate is chosen by the configured {!objective} over the
    driver-output RAT.

    The tape is first bound to [model] ({!bind_device_ids}), so the
    model must be fresh for each run.  With a [pool] of more than one
    job and a net larger than [grain] (default {!default_grain}),
    independent subtrees run as dependency-counted tasks on the pool
    ({!Compile.Tape.schedule}); otherwise the sequential postorder loop
    runs.  Device ids are bound before the DP starts and merges keep
    the fixed child order, so the result is byte-identical at any job
    count (modulo [stats.runtime_s], which is wall-clock).
    @raise Budget_exceeded when the configured budget trips. *)

val run :
  ?pool:Exec.Pool.t ->
  ?grain:int ->
  config ->
  model:Varmodel.Model.t ->
  Rctree.Tree.t ->
  result
(** [run ?pool ?grain config ~model tree] is
    [run_tape ?pool ?grain config ~model (Compile.Tape.compile tree)].
    @raise Budget_exceeded when the configured budget trips. *)

val make_checks :
  budget -> t_start:float -> (unit -> unit) * (where:string -> int -> unit)
(** [make_checks budget ~t_start] is [(check_time, check_count)], the
    budget checks every engine runs: [check_time ()] raises
    {!Budget_exceeded} once the wall clock is more than
    [max_seconds] past [t_start]; [check_count ~where n] raises it when
    [n] exceeds [max_candidates], naming [where] in the message. *)

val bind_device_ids :
  model:Varmodel.Model.t -> ids_per_edge:int -> Compile.Tape.t -> int array
(** Bind a tape to [model]: consume [ids_per_edge] fresh device ids
    per edge, in tape edge order, and return each edge's first id
    (an array of at least one entry, [-1] when the tape has no edge).
    Every engine binds through this function, so the model's id
    counter advances the same way whichever engine runs. *)

val merge_frontiers : node:int -> Sol.t array -> Sol.t array -> Sol.t array
(** The linear O(n + m) merge of Fig. 1, exposed for demonstration and
    testing: both inputs must be pruned frontiers sorted by ascending
    mean load; the result pairs the current pair and advances the side
    whose RAT binds the statistical min.  At most [n + m - 1] merged
    candidates are produced, already frontier-ordered. *)

val merge_cross :
  node:int -> check:(int -> unit) -> Sol.t array -> Sol.t array -> Sol.t array
(** The quadratic cross-product merge the 4P rule forces (§2.2),
    exposed so its in-loop abort path is directly testable: [check] is
    called with the running combination count (1-based) before each
    combination is stored — [run] passes the candidate-budget test
    plus a wall-clock deadline check every 1024 combinations, and an
    exception raised by [check] aborts the merge mid-loop. *)
