(** Per-domain scratch buffers for the sample engine, mirroring
    {!Bufins.Arena}: the stride-K wired-row stage of a lift, one
    K-sized candidate scratch row, per-candidate prune keys, the kept
    block the sweep scans, the sweep's permutation / kept / kept-index
    / mergesort scratch, and the merge pair filter's row summaries and
    bitsets.  Buffers are valid for the duration of one lift / merge /
    prune call on the borrowing domain; a borrow of [n] entries may
    return a longer array whose contents are unspecified. *)

type t

val get : unit -> t
(** The calling domain's arena ({!Domain.DLS}). *)

val a_load : t -> int -> float array
val a_rat : t -> int -> float array
val a_choice : t -> int -> dummy:Bufins.Sol.choice -> Bufins.Sol.choice array

val row_load : t -> int -> float array
val row_rat : t -> int -> float array
(** One candidate row, generated to compute its keys. *)

val keys : t -> int -> float array
(** Per-candidate prune keys, laid out by the caller. *)

val cand : t -> int -> int array
(** Per-candidate source descriptor of a lift. *)

val keep_load : t -> float array
val keep_rat : t -> float array
val keep_keys : t -> float array

val reserve_keep : t -> row:int -> keys:int -> int -> unit
(** [reserve_keep t ~row ~keys slots] grows the kept block to at least
    [slots] rows of [row] samples each and [keys] keys per row,
    preserving its contents; the accessors then return the new
    arrays. *)

val perm : t -> int -> int array
val kept : t -> int -> int array

val order : t -> int -> int array
(** The sweep's kept slots ordered by mean RAT. *)

val sums : t -> int -> float array
val bits : t -> int -> int array
(** The merge pair filter's per-row summaries and bitsets. *)

val sort_prefix : t -> int array -> int -> cmp:(int -> int -> int) -> unit
(** Stable sort of the first [n] entries of the index array under
    [cmp], using the arena's mergesort scratch.  Same permutation as
    [Array.stable_sort] under the same comparator. *)
