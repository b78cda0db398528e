(** Spatial-correlation grid (§3.2, Fig. 4).

    The die is partitioned into square regions of pitch [pitch_um]
    (500 µm in the paper's setup); each region carries one independent
    standard-normal source.  A device at location (x, y) is affected by
    the sources of all regions within [range_um] of it, with weights
    forming an isotropic stationary Gaussian taper (§5.1: "tapers off
    at a distance about 2 mm").  Weights are normalised to unit sum of
    squares so that a device's total spatial variance equals the
    budgeted sigma squared regardless of where it sits. *)

type t

val create : width_um:float -> height_um:float -> pitch_um:float -> range_um:float -> t
(** @raise Invalid_argument on non-positive dimensions, pitch or range. *)

val width_um : t -> float
val height_um : t -> float
val pitch_um : t -> float
val range_um : t -> float

val regions : t -> int
(** Total number of regions (columns × rows). *)

val cols : t -> int
val rows : t -> int

val region_of : t -> x:float -> y:float -> int
(** Index of the region containing (x, y); coordinates are clamped to
    the die, so off-die points map to the nearest border region. *)

val region_center : t -> int -> float * float
(** Center coordinates of a region.
    @raise Invalid_argument on an out-of-range index. *)

val weights : t -> x:float -> y:float -> int array * float array
(** [weights g ~x ~y] is the pair of parallel arrays (region indices
    ascending, weights) covering every region whose center lies within
    [range_um] of (x, y).  The weights follow a Gaussian taper in
    distance and satisfy {m \sum w_i^2 = 1 }.  Both arrays are fresh
    and exact-size; apart from them the call allocates only a
    constant. *)

val weights_at : t -> x:float -> y:float -> (int * float) list
(** {!weights} as a list of (region index, weight) pairs. *)
