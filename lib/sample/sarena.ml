(* Per-domain scratch for the sample engine's hot path, mirroring
   [Bufins.Arena].

   A lift stages its wired rows (stride-K float arrays plus a choice
   per row); every prune stages per-candidate keys (means, power, a
   min/max sketch; for lifts also an int descriptor naming the row's
   source) and the sweep's permutation / kept / mergesort scratch.
   Candidate rows are never staged as a block: a merge computes a
   row's keys without storing it, a lift from a K-sized scratch row,
   and the sweep generates the rows it needs into the kept block.  All
   of it is borrowed from the calling domain's arena for the duration
   of one lift / merge / prune — there is no suspension point inside
   those — and grows geometrically to the domain's running peak.  Only
   the pruned frontier (exact-size [Engine.sol] rows) is freshly
   allocated.  A merge also borrows its pair filter's per-row
   summaries and bitsets, and the sweep its mean-RAT-ordered index of
   kept slots. *)

type t = {
  mutable a_load : float array; (* wired rows, stride K *)
  mutable a_rat : float array;
  mutable a_choice : Bufins.Sol.choice array;
  mutable row_load : float array; (* one candidate row, length K *)
  mutable row_rat : float array;
  mutable keys : float array; (* per-candidate keys *)
  mutable cand : int array;
  mutable keep_load : float array; (* kept rows, stride K, in kept order *)
  mutable keep_rat : float array;
  mutable keep_keys : float array; (* the kept rows' keys *)
  mutable perm : int array;
  mutable kept : int array;
  mutable order : int array; (* kept slots by mean RAT, descending *)
  mutable sort_tmp : int array;
  mutable sums : float array; (* pair filter: per-row summaries *)
  mutable bits : int array; (* pair filter: bitsets *)
}

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        a_load = [||];
        a_rat = [||];
        a_choice = [||];
        row_load = [||];
        row_rat = [||];
        keys = [||];
        cand = [||];
        keep_load = [||];
        keep_rat = [||];
        keep_keys = [||];
        perm = [||];
        kept = [||];
        order = [||];
        sort_tmp = [||];
        sums = [||];
        bits = [||];
      })

let get () = Domain.DLS.get key

let cap n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let obs_reuse = Obs.Counters.counter Obs.Counters.global "sample.arena.reuse"
let obs_grow = Obs.Counters.counter Obs.Counters.global "sample.arena.grow"

let note_borrow grew =
  if Obs.Control.on () then
    Obs.Counters.incr (if grew then obs_grow else obs_reuse) 1

(* Borrow one buffer of at least [n] entries, replacing it (contents
   dropped) when too short. *)
let borrow make get set t n =
  let a = get t in
  let grew = Array.length a < n in
  let a =
    if grew then begin
      let a = make (cap n) in
      set t a;
      a
    end
    else a
  in
  note_borrow grew;
  a

let floats get set = borrow (fun n -> Array.make n 0.0) get set
let ints get set = borrow (fun n -> Array.make n 0) get set
let a_load = floats (fun t -> t.a_load) (fun t a -> t.a_load <- a)
let a_rat = floats (fun t -> t.a_rat) (fun t a -> t.a_rat <- a)

let a_choice t n ~dummy =
  borrow (fun n -> Array.make n dummy) (fun t -> t.a_choice)
    (fun t a -> t.a_choice <- a) t n

let row_load = floats (fun t -> t.row_load) (fun t a -> t.row_load <- a)
let row_rat = floats (fun t -> t.row_rat) (fun t a -> t.row_rat <- a)
let keys = floats (fun t -> t.keys) (fun t a -> t.keys <- a)
let cand = ints (fun t -> t.cand) (fun t a -> t.cand <- a)
let perm = ints (fun t -> t.perm) (fun t a -> t.perm <- a)
let kept = ints (fun t -> t.kept) (fun t a -> t.kept <- a)
let order = ints (fun t -> t.order) (fun t a -> t.order <- a)
let sums = floats (fun t -> t.sums) (fun t a -> t.sums <- a)
let bits = ints (fun t -> t.bits) (fun t a -> t.bits <- a)
let keep_load t = t.keep_load
let keep_rat t = t.keep_rat
let keep_keys t = t.keep_keys

let reserve_keep t ~row ~keys slots =
  if
    Array.length t.keep_keys < keys * slots
    || Array.length t.keep_load < row * slots
  then begin
    let c = cap slots in
    let grow a n =
      let b = Array.make n 0.0 in
      Array.blit a 0 b 0 (min n (Array.length a));
      b
    in
    t.keep_load <- grow t.keep_load (c * row);
    t.keep_rat <- grow t.keep_rat (c * row);
    t.keep_keys <- grow t.keep_keys (c * keys);
    note_borrow true
  end

(* Stable bottom-up mergesort of [idx.(0 .. n-1)] — same algorithm as
   [Bufins.Arena.sort_prefix]; stability pins which of several exact
   duplicates survives pruning, hence the choice-trail bytes. *)
let sort_prefix t idx n ~cmp =
  if Array.length t.sort_tmp < n then t.sort_tmp <- Array.make (cap n) 0;
  let tmp = t.sort_tmp in
  let merge lo mid hi =
    let i = ref lo and j = ref mid and k = ref lo in
    while !i < mid && !j < hi do
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
