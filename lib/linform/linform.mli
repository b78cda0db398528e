(** First-order canonical forms over independent standard-normal
    variation sources.

    A form represents the random variable

    {m  a_0 + \sum_i a_i X_i,  \qquad X_i \sim N(0,1) \text{ i.i.d.} }

    exactly as in Eq. (31)-(32) of the paper, except that source
    magnitudes are absorbed into the sensitivities, so the variance is
    simply {m \sum_i a_i^2 } and the covariance of two forms is the dot
    product of their sensitivity vectors.  Sources are identified by
    integer ids handed out by {!Varmodel.Registry} (or any other
    allocator); two forms sharing an id are correlated through it.

    Sensitivity vectors are kept sparse, sorted by id and free of zero
    coefficients, so every binary operation is a linear merge.
    Internally a form is a struct-of-arrays — one sorted [int array] of
    source ids and one flat [float array] of coefficients.  Every merge
    kernel is one fill pass into the calling domain's scratch buffers,
    copied out into exact-size result arrays, so an operation allocates
    its result (two arrays, the record, its boxed floats) plus a small
    constant, and nothing per element: no lists, no tuples, no boxed
    floats.  The scratch is per domain ([Domain.DLS]); no library code
    runs these operations from two systhreads of one domain, and a
    caller that did would have to serialise them. *)

type t

(** {1 Construction} *)

val const : float -> t
(** A deterministic value: no sensitivities, zero variance. *)

val make : nominal:float -> sens:(int * float) list -> t
(** [make ~nominal ~sens] builds a form; duplicate ids are summed and
    zero coefficients dropped. *)

val of_sorted_arrays : nominal:float -> ids:int array -> coefs:float array -> t
(** [of_sorted_arrays ~nominal ~ids ~coefs] builds a form directly from
    parallel arrays, taking ownership of them (do not mutate after the
    call).  [ids] must be strictly increasing; zero coefficients are
    dropped.  Without zeros it allocates only the record and its boxed
    floats: the construction path for callers
    that already know the sorted source layout (e.g.
    {!Varmodel.Model.site_device_form}).
    @raise Invalid_argument on unsorted ids or length mismatch. *)

val zero : t

(** {1 Accessors} *)

val mean : t -> float
(** The nominal value {m a_0 }, which is also the mean. *)

val variance : t -> float
(** {m \sum_i a_i^2 } (cached; O(1)). *)

val std : t -> float

val sensitivities : t -> (int * float) array
(** The sparse sensitivity vector, sorted by source id.  The returned
    array is fresh; mutating it does not affect the form. *)

val sensitivity : t -> int -> float
(** [sensitivity f id] is the coefficient of source [id] (0 if absent);
    O(log n) by binary search. *)

val support_size : t -> int
(** Number of sources with non-zero coefficient. *)

val is_deterministic : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val shift : float -> t -> t
(** [shift c f] adds the constant [c] to the nominal. *)

val axpy : float -> t -> t -> t
(** [axpy a x y] is [add (scale a x) y] without the intermediate
    allocation — the inner loop of the wire/buffer propagation
    (Eq. 34 and 36). *)

val axpy_shift : float -> t -> t -> float -> t
(** [axpy_shift a x y c] is [shift c (axpy a x y)] fused into one merge
    pass — the exact composite the wire lift (Eq. 33-34) executes once
    per candidate per edge, without the intermediate form. *)

val mul_first_order : t -> t -> t
(** First-order product: for {m X = x_0 + \sum x_i X_i } and
    {m Y = y_0 + \sum y_i X_i },

    {m  XY \approx x_0 y_0 + \sum (x_0 y_i + y_0 x_i) X_i, }

    dropping the second-order cross terms — the standard linearisation
    that keeps products of canonical forms canonical.  Used when wire
    parasitics themselves vary (CMP variation), where the Elmore terms
    are products of random variables.  Exact when either operand is
    deterministic. *)

(** {1 Second-order statistics} *)

val covariance : t -> t -> float
(** Sparse dot product of the two sensitivity vectors. *)

val correlation : t -> t -> float
(** Pearson correlation; [0.] if either form is deterministic. *)

val std_diff : t -> t -> float
(** [std_diff a b] is the standard deviation of [a - b], i.e. the
    {m \sigma_{T_1,T_2} } of Eq. (9), computed without building the
    difference form. *)

(** {1 Probabilistic comparison (the pruning primitives)} *)

val prob_greater : t -> t -> float
(** [prob_greater a b] is {m P(A > B) = \Phi((\mu_A-\mu_B)/\sigma_{A,B}) }
    (Eq. 8).  When the difference is deterministic the result is 0, ½
    or 1 by sign. *)

val percentile : t -> float -> float
(** [percentile f p] is the {m \pi_p } of Eq. (1) under the normal
    marginal: {m \mu + \sigma\,\Phi^{-1}(p) }. *)

(** {1 Statistical min/max (Eq. 38-40)} *)

val stat_min : t -> t -> t
(** Tightness-probability linear reconstruction of {m \min(A,B) }:
    the merge operation of Eq. (38).  Exact when one operand dominates
    almost surely; Clark's first-moment-matched approximation
    otherwise. *)

val stat_max : t -> t -> t
(** {m \max(A,B) = -\min(-A,-B) }. *)

(** {1 Evaluation} *)

val eval : t -> (int -> float) -> float
(** [eval f lookup] realises the form under the source assignment
    [lookup]: {m a_0 + \sum a_i \cdot \mathrm{lookup}(i) }.  Used by the
    Monte-Carlo engine with one joint sample for all forms. *)

val map_sens : (int -> float -> float) -> t -> t
(** [map_sens g f] rewrites each coefficient [a_i] to [g i a_i]
    (dropping resulting zeros); used to project forms onto a subset of
    variation sources (e.g. the D2D mode discards spatial ids). *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Prints mean, std and support size, e.g. [42.1±3.2(5 srcs)]. *)

(** {1 Reference oracle}

    A deliberately naive assoc-list implementation of the same algebra,
    sharing no code with the SoA merge kernels: coefficients are looked
    up by id over the union of the two supports.  Used by the qcheck
    equivalence suite and the kernel micro-benchmarks as the baseline
    the optimised kernels are validated (and measured) against. *)
module Reference : sig
  type form = { r_nominal : float; r_sens : (int * float) list }

  val of_form : t -> form
  val to_form : form -> t
  val mean : form -> float
  val coeff : form -> int -> float
  val add : form -> form -> form
  val sub : form -> form -> form
  val axpy : float -> form -> form -> form
  val mul_first_order : form -> form -> form
  val variance : form -> float
  val covariance : form -> form -> float
  val stat_min : form -> form -> form
end
