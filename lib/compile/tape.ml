(* Flatten an RC tree into a postorder instruction tape.

   Every per-edge fact the DP needs — the site of the buffer position,
   the wire midpoint, subtree sizes, frontier slot lifetimes, budget
   labels — is a pure function of the topology, so it is derived here
   once and a net that is solved repeatedly (the serve path sees the
   same nets over and over) pays for it once.  [compile] emits a flat
   op array in sequential postorder, with every edge numbered in the
   order the device ids are bound (postorder over parent nodes, child
   edges in list order).  An engine binds a tape to a concrete
   variation model by consuming fresh device ids in edge order and
   interprets the ops with no tree in sight.

   The tape is model-independent on purpose: one compiled tape serves
   every rule (det/1P/2P/4P/[6]) and the sampling engine, and can be
   cached across requests keyed by a digest of the topology alone. *)

type op =
  | Tag_sink of { node : int; cap : float; rat : float }
      (** leaf: seed the node's frontier with the sink candidate *)
  | Lift_edge of { child : int; edge : int; length : float }
      (** stage the wired lifts of [child]'s frontier through its
          upward edge (the frontier slot is consumed) *)
  | Insert_site of { child : int; edge : int }
      (** stage the buffered variants at the edge's site on top of the
          pending wired candidates, then prune into a lifted frontier *)
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
  slot : int array;  (** node id -> frontier slot, sequential execution *)
  slots : int;  (** number of slots a sequential interpreter needs *)
  where_node : string array;  (** node id -> budget-check label *)
  where_edge : string array;  (** edge -> budget-check label *)
  where_merge : string array;  (** node id -> merge label, "" below merges *)
}

let node_count t = t.n
let edge_count t = t.edges
let op_count t = Array.length t.ops
let slot_count t = t.slots
let root t = t.post.(t.n - 1)

let obs_compiled = Obs.Counters.counter Obs.Counters.global "tape.compiled"
let obs_compile_ns = Obs.Counters.counter Obs.Counters.global "tape.compile_ns"

let compile tree =
  let obs = Obs.Control.on () in
  let t0 = if obs then Obs.Span.now_ns () else 0 in
  let n = Rctree.Tree.node_count tree in
  let post = Rctree.Tree.postorder tree in
  let edges = Rctree.Tree.edge_count tree in
  let ops = ref [] and nops = ref 0 in
  let push op =
    ops := op :: !ops;
    incr nops
  in
  let op_off = Array.make n 0 and op_end = Array.make n 0 in
  let edge_child = Array.make edges (-1) in
  let edge_site = Array.make edges (-1) in
  let edge_length = Array.make edges 0.0 in
  let edge_mid_x = Array.make edges 0.0 in
  let edge_mid_y = Array.make edges 0.0 in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  let left = Array.make n (-1) and right = Array.make n (-1) in
  let size = Array.make n 1 in
  (* Frontier slots, assigned by replaying the sequential postorder:
     a sink's frontier lands in a free slot, a single-child node
     overwrites its child's slot, and a merge keeps the left slot and
     frees the right.  Peak occupancy equals the tree's Strahler-like
     width, so a sequential interpreter touches O(width) frontier
     cells instead of O(n).  Slot reuse encodes sequential lifetimes —
     a parallel interpreter must fall back to the identity mapping,
     which changes nothing observable (slots never enter the math). *)
  let slot = Array.make n (-1) in
  (* Budget-check labels ("node 7", "edge above node 3", ...) are pure
     topology: built once here, a warm execution never formats one. *)
  let where_node = Array.make n "" in
  let where_edge = Array.make edges "" in
  let where_merge = Array.make n "" in
  let free = ref [] and next_slot = ref 0 in
  let alloc_slot () =
    match !free with
    | s :: rest ->
      free := rest;
      s
    | [] ->
      let s = !next_slot in
      incr next_slot;
      s
  in
  let next_edge = ref 0 in
  Array.iter
    (fun id ->
      let px, py = Rctree.Tree.position tree id in
      x.(id) <- px;
      y.(id) <- py)
    post;
  Array.iter
    (fun id ->
      op_off.(id) <- !nops;
      where_node.(id) <- Printf.sprintf "node %d" id;
      (match Rctree.Tree.sink tree id with
      | Some s ->
        push
          (Tag_sink
             { node = id; cap = s.Rctree.Tree.sink_cap; rat = s.Rctree.Tree.sink_rat });
        slot.(id) <- alloc_slot ()
      | None ->
        let kids = Rctree.Tree.children tree id in
        List.iter
          (fun (child, length) ->
            let e = !next_edge in
            incr next_edge;
            edge_child.(e) <- child;
            edge_site.(e) <- id;
            edge_length.(e) <- length;
            edge_mid_x.(e) <- 0.5 *. (x.(id) +. x.(child));
            edge_mid_y.(e) <- 0.5 *. (y.(id) +. y.(child));
            size.(id) <- size.(id) + size.(child);
            where_edge.(e) <- Printf.sprintf "edge above node %d" child;
            push (Lift_edge { child; edge = e; length });
            push (Insert_site { child; edge = e }))
          kids;
        (match kids with
        | [ (c, _) ] ->
          left.(id) <- c;
          slot.(id) <- slot.(c)
        | [ (a, _); (b, _) ] ->
          left.(id) <- a;
          right.(id) <- b;
          where_merge.(id) <- Printf.sprintf "merge at node %d" id;
          push (Merge { node = id });
          slot.(id) <- slot.(a);
          free := slot.(b) :: !free
        | _ -> invalid_arg "Tape.compile: node with unsupported arity"));
      op_end.(id) <- !nops)
    post;
  assert (!next_edge = edges);
  let tape =
    {
      n;
      edges;
      post;
      ops = Array.of_list (List.rev !ops);
      op_off;
      op_end;
      edge_child;
      edge_site;
      edge_length;
      edge_mid_x;
      edge_mid_y;
      x;
      y;
      left;
      right;
      size;
      slot;
      slots = !next_slot;
      where_node;
      where_edge;
      where_merge;
    }
  in
  if obs then begin
    let t1 = Obs.Span.now_ns () in
    Obs.Counters.incr obs_compiled 1;
    Obs.Counters.incr obs_compile_ns (t1 - t0);
    Obs.Span.record ~name:"tape.compile" ~cat:"tape" ~t0_ns:t0
  end;
  tape

type schedule = {
  slot_of : int array;
  slots : int;
  run : (int -> unit) -> unit;
}

(* Sequential execution is the plain postorder loop over the compact
   frontier slots.  With a multi-job pool and a net above the grain,
   every node whose subtree exceeds the grain becomes a task that
   first runs its small child subtrees inline (in postorder) and then
   its own node; [Exec.Pool.run_graph] releases a merge node's task
   only once its child tasks finished.  Concurrent sibling subtrees
   would race on reused slots, so the parallel schedule maps every
   node to its own slot — slots never enter the math, so both
   mappings yield the same bytes. *)
let schedule ?pool ~grain t =
  match pool with
  | Some pool when Exec.Pool.jobs pool > 1 && t.n > max 1 grain ->
    let grain = max 1 grain in
    let ntasks = ref 0 in
    let task_index = Array.make t.n (-1) in
    Array.iter
      (fun id ->
        if t.size.(id) > grain then begin
          task_index.(id) <- !ntasks;
          incr ntasks
        end)
      t.post;
    (* size(root) = n > grain, so the root is always a task. *)
    let task_ids = Array.make !ntasks 0 in
    Array.iter
      (fun id -> if task_index.(id) >= 0 then task_ids.(task_index.(id)) <- id)
      t.post;
    let is_task c = c >= 0 && task_index.(c) >= 0 in
    let deps =
      Array.map
        (fun id ->
          List.filter is_task [ t.left.(id); t.right.(id) ]
          |> List.map (fun c -> task_index.(c))
          |> Array.of_list)
        task_ids
    in
    let run exec_node =
      let rec inline_subtree id =
        if id >= 0 then begin
          inline_subtree t.left.(id);
          inline_subtree t.right.(id);
          exec_node id
        end
      in
      Exec.Pool.run_graph pool ~deps ~run:(fun ti ->
          let id = task_ids.(ti) in
          if not (is_task t.left.(id)) then inline_subtree t.left.(id);
          if not (is_task t.right.(id)) then inline_subtree t.right.(id);
          exec_node id)
    in
    { slot_of = Array.init t.n Fun.id; slots = t.n; run }
  | _ ->
    {
      slot_of = t.slot;
      slots = t.slots;
      run = (fun exec_node -> Array.iter exec_node t.post);
    }
