(* Per-domain scratch buffers for the DP hot path.

   Candidate generation and the stable index-permutation sort used by
   pruning need five short-lived arrays per node (key caches, the
   permutation, the kept set, a mergesort scratch) plus two staging
   buffers of candidates.  Allocating them per node would add to every
   node's allocation on top of the canonical-form results (which the
   kernels allocate exactly and which cannot be pooled: they are the
   DP's output); instead each domain owns one arena, fetched through
   [Domain.DLS], whose buffers grow geometrically to the running peak
   and are reused for every subsequent node that domain processes.

   Buffers are borrowed for the duration of one [lift]/[prune] call —
   there is no suspension point inside those, so a domain can never
   observe its own arena mid-use.  The [Sol.t] staging buffers keep
   their last contents alive between nodes (bounded by the peak
   frontier size); the pruned frontiers themselves are always fresh
   exact-size arrays, so nothing long-lived ever aliases an arena. *)

type t = {
  mutable load_keys : float array;
  mutable rat_keys : float array;
  mutable perm : int array;
  mutable kept : int array;
  mutable sort_tmp : int array;
  mutable stage_a : Sol.t array; (* wired candidates *)
  mutable stage_b : Sol.t array; (* wired + buffered, fed to the pruner *)
}

(* Toggled (only) by the bench harness to measure the allocation the
   arena saves; a disabled arena hands out fresh buffers per call. *)
let enabled = ref true

let create () =
  {
    load_keys = [||];
    rat_keys = [||];
    perm = [||];
    kept = [||];
    sort_tmp = [||];
    stage_a = [||];
    stage_b = [||];
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let get () = if !enabled then Domain.DLS.get key else create ()

let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Arena hit-rate: a borrow that fits the existing buffer is a reuse,
   one that has to (re)allocate is a grow.  Handles are resolved once
   at module initialisation; only the enabled path touches them. *)
let obs_reuse = Obs.Counters.counter Obs.Counters.global "arena.reuse"
let obs_grow = Obs.Counters.counter Obs.Counters.global "arena.grow"

let note_borrow grew =
  if Obs.Control.on () then
    Obs.Counters.incr (if grew then obs_grow else obs_reuse) 1

let load_keys t n =
  let grew = Array.length t.load_keys < n in
  if grew then t.load_keys <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.load_keys

let rat_keys t n =
  let grew = Array.length t.rat_keys < n in
  if grew then t.rat_keys <- Array.make (cap n) 0.0;
  note_borrow grew;
  t.rat_keys

let perm t n =
  let grew = Array.length t.perm < n in
  if grew then t.perm <- Array.make (cap n) 0;
  note_borrow grew;
  t.perm

let kept t n =
  let grew = Array.length t.kept < n in
  if grew then t.kept <- Array.make (cap n) 0;
  note_borrow grew;
  t.kept

let stage_a t n ~dummy =
  let grew = Array.length t.stage_a < n in
  if grew then t.stage_a <- Array.make (cap n) dummy;
  note_borrow grew;
  t.stage_a

let stage_b t n ~dummy =
  let grew = Array.length t.stage_b < n in
  if grew then t.stage_b <- Array.make (cap n) dummy;
  note_borrow grew;
  t.stage_b

(* Stable bottom-up mergesort of [idx.(0 .. n-1)].  Any stable sort
   computes the same permutation as [Array.stable_sort] under the same
   comparator, which is what pins which of several exact-duplicate
   candidates survives pruning (and hence the choice trail bytes). *)
let sort_prefix t idx n ~cmp =
  if Array.length t.sort_tmp < n then t.sort_tmp <- Array.make (cap n) 0;
  let tmp = t.sort_tmp in
  let merge lo mid hi =
    let i = ref lo and j = ref mid and k = ref lo in
    while !i < mid && !j < hi do
      (* <= keeps the left run's element first: stability. *)
      if cmp idx.(!i) idx.(!j) <= 0 then begin
        tmp.(!k) <- idx.(!i);
        incr i
      end
      else begin
        tmp.(!k) <- idx.(!j);
        incr j
      end;
      incr k
    done;
    while !i < mid do
      tmp.(!k) <- idx.(!i);
      incr i;
      incr k
    done;
    while !j < hi do
      tmp.(!k) <- idx.(!j);
      incr j;
      incr k
    done;
    Array.blit tmp lo idx lo (hi - lo)
  in
  let width = ref 1 in
  while !width < n do
    let lo = ref 0 in
    while !lo + !width < n do
      let mid = !lo + !width in
      let hi = min n (mid + !width) in
      merge !lo mid hi;
      lo := hi
    done;
    width := !width * 2
  done
