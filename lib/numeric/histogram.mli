(** Fixed-bin histograms, used to render the paper's PDF comparison
    figures (Fig. 3 and Fig. 6) as printable series. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] makes an empty histogram of [bins] equal
    bins over [lo, hi).  Samples outside the range are counted in the
    outermost bins so no mass is silently lost.
    @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)

val of_samples : ?bins:int -> float array -> t
(** [of_samples xs] builds a histogram spanning the sample range,
    slightly widened; [bins] defaults to the square root of the sample
    size clamped to [10, 100].
    @raise Invalid_argument on an empty sample. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram whose bins hold the per-bin sums
    of [a] and [b] (neither input is modified).  Bin counts are summed
    independently, so merging is associative and commutative — the
    property per-domain observability registries rely on when folding
    into one.
    @raise Invalid_argument unless both histograms share the same
    range and bin count. *)

val add : t -> float -> unit
val total : t -> int
val bins : t -> int

val lo : t -> float
(** Lower edge of the first bin. *)

val hi : t -> float
(** Upper edge of the last bin: [lo] plus bins times bin width. *)

val bin_center : t -> int -> float
val bin_count : t -> int -> int

val bin_density : t -> int -> float
(** [bin_density h i] is the normalised density of bin [i]: counts
    divided by (total * bin width), so the histogram integrates to 1
    and is directly comparable to a PDF. *)

val density_series : t -> (float * float) array
(** All (bin center, density) pairs, in increasing x order. *)

val value_at_rank : t -> int -> float
(** [value_at_rank h r] estimates the [r]-th smallest recorded sample
    (1-based): a cumulative walk to the bin holding it, linearly
    interpolated within the bin.  For a sample inside [[lo, hi)] the
    estimate lies above its bin's lower edge and at most at its upper
    edge, so it is within one bin width of the sample.
    @raise Invalid_argument unless [1 <= r <= total h]. *)

val percentile : t -> float -> float
(** [percentile h p] estimates the [p]-quantile ([p] in [0, 1]) of the
    recorded samples: {!value_at_rank} of the nearest-rank sample.  The
    estimate is exact to within one bin width; the load generator
    reports its latency percentiles with it.
    @raise Invalid_argument if the histogram is empty or [p] is outside
    [0, 1]. *)
