(** Compile an RC tree into a flat postorder instruction tape.

    The tape is the program every DP engine runs: [run] compiles the
    tree and interprets the tape, and [run_tape] interprets a tape
    compiled earlier.  It is model-independent — every
    topology-derived fact the engines need (postorder, per-edge buffer
    sites and wire midpoints, subtree sizes for task decomposition,
    frontier slot lifetimes, budget-check labels) is precomputed once,
    so an interpreter touches no tree structure at all.  Engines bind
    a tape to a concrete variation model with
    {!Bufins.Engine.bind_device_ids}, which consumes fresh device ids
    in edge order; the bytes of a result therefore depend on the edge
    numbering alone, never on the schedule ({!schedule}).

    One compiled tape serves every pruning rule, the probabilistic
    baseline and the sampling engine, and can be cached across serve
    requests keyed by a digest of the encoded topology. *)

type op =
  | Tag_sink of { node : int; cap : float; rat : float }
      (** leaf: seed the node's frontier with the sink candidate *)
  | Lift_edge of { child : int; edge : int; length : float }
      (** stage the wired lifts of [child]'s frontier through its
          upward edge (the child's frontier slot is consumed) *)
  | Insert_site of { child : int; edge : int }
      (** stage the buffered variants at the edge's site, then prune
          the staged candidates into a lifted frontier *)
  | Merge of { node : int }
      (** combine the two pending lifted frontiers at a Steiner node *)

type t = {
  n : int;  (** node count *)
  edges : int;  (** edge count = n - 1 *)
  post : int array;  (** sequential execution order (postorder) *)
  ops : op array;
  op_off : int array;  (** node id -> first op of its group *)
  op_end : int array;  (** node id -> one past its last op *)
  edge_child : int array;  (** edge -> lower endpoint (the child) *)
  edge_site : int array;  (** edge -> buffer site = parent node id *)
  edge_length : float array;  (** edge -> wire length, µm *)
  edge_mid_x : float array;  (** edge -> midpoint, µm *)
  edge_mid_y : float array;
  x : float array;  (** node id -> position, µm *)
  y : float array;
  left : int array;  (** node id -> first child, -1 for sinks *)
  right : int array;  (** node id -> second child, -1 below merges *)
  size : int array;  (** node id -> subtree node count *)
  slot : int array;  (** node id -> frontier slot (sequential only) *)
  slots : int;  (** slots a sequential interpreter needs *)
  where_node : string array;
      (** node id -> budget-check label, ["node <id>"] *)
  where_edge : string array;
      (** edge -> budget-check label, ["edge above node <child>"] *)
  where_merge : string array;
      (** node id -> ["merge at node <id>"], [""] for non-merge nodes *)
}

val compile : Rctree.Tree.t -> t
(** Flatten [tree].  Bumps the [tape.compiled] and [tape.compile_ns]
    counters and records a [tape.compile] span when observability is
    on.
    @raise Invalid_argument on nodes with more than two children. *)

val node_count : t -> int
val edge_count : t -> int
val op_count : t -> int

val slot_count : t -> int
(** Peak simultaneous frontiers of a sequential interpretation. *)

val root : t -> int
(** The driver node (last entry of [post]). *)

type schedule = {
  slot_of : int array;  (** node id -> frontier slot *)
  slots : int;  (** frontier slots the interpreter allocates *)
  run : (int -> unit) -> unit;
      (** [run exec_node] calls [exec_node] once per node, every node
          after its children *)
}

val schedule : ?pool:Exec.Pool.t -> grain:int -> t -> schedule
(** The one node scheduler of every interpreter.  Without a pool, with
    a one-job pool or with a net of at most [grain] nodes, [run] is the
    sequential postorder loop over the compact slots ([slot],
    [slots]).  Otherwise every node whose subtree exceeds [grain]
    becomes a dependency-counted task on [pool] ({!Exec.Pool.run_graph})
    that runs its smaller child subtrees inline, and every node gets
    its own slot so concurrent subtrees never share one.  An
    interpreter whose per-node work depends only on its children's
    frontiers computes the same bytes under either schedule.
    @raise exn whatever [exec_node] raises, after the pool drained. *)
