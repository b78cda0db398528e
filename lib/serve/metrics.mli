(** Service counters and latency distribution, served by the [stats]
    request.

    Counters are {!Atomic} so any domain may record; the latency
    histogram ({!Numeric.Histogram}) is guarded by a private mutex.
    {!render} is the text payload of the [stats] frame — line-oriented
    key-value pairs, one histogram bucket per non-empty bin. *)

type t

val create : unit -> t
(** Fresh metrics; the latency histogram spans 0–60 000 ms in 500 ms
    bins (samples beyond either end are clamped into the outermost
    bins, so no request is ever lost from the distribution), and
    sub-second latencies are also kept in 1 ms bins for the
    percentiles. *)

val conn_opened : t -> unit
val conn_closed : t -> unit

val request_ok : t -> latency_ms:float -> unit
(** A successful response; [latency_ms] is queue wait + execution.
    This is the {e only} entry point feeding the latency
    distribution. *)

val request_error : t -> code:string -> unit
(** An [error] response, by {!Protocol} error code.  Errors bump the
    request/error counters but never enter the latency
    distribution. *)

val cache_hit : t -> unit
(** A request answered from the result {!Cache}. *)

val cache_miss : t -> unit
(** A request that went to the optimiser (cache enabled but cold). *)

val request_kind : t -> kind:string -> unit
(** A client frame arrived, by frame kind ([request], [stats], …), so
    shard dashboards see the traffic mix without post-processing. *)

val render : t -> string
(** {v
    uptime_s 12.3
    connections 1
    connections_total 4
    requests 7
    ok 5
    errors 2
    cache_hits 1
    cache_misses 4
    cache_hit_ratio 0.2000
    error_parse 1
    error_deadline 1
    kind_request 7
    kind_stats 1
    latency_ms_count 5
    latency_ms_mean 40.9
    latency_ms_max 80.1
    latency_ms_p50 36.0
    latency_ms_p95 80.1
    latency_ms_p99 80.1
    latency_ms_bucket 250 5
    v}
    [cache_hit_ratio] is hits / (hits + misses), printed only once the
    cache has been consulted at least once.  [error_<code>] lines
    appear only for codes seen, [kind_<kind>] lines only for frame
    kinds seen; the mean/max/percentile and bucket lines only once at
    least one ok response was recorded, bucket lines only for
    non-empty 500 ms bins (center, count).  The percentiles are
    nearest-rank estimates: within 1 ms of the sample for latencies
    below 1 s, within 500 ms up to a minute, and never above
    [latency_ms_max].
    Every
    [latency_ms_*] line covers
    successful (ok) responses only — errors are counted in [errors]
    and [error_<code>] but excluded from the latency distribution, so
    [latency_ms_count] equals [ok], not [requests].  The exact key
    sequence above is a contract (the serve test suite asserts it),
    keyed on by shard dashboards.

    When observability is enabled ({!Obs.Control.on}), the global
    {!Obs.Counters} registry is appended as [obs_<name> <value>] lines
    for counters and [obs_<name>_count/_mean/_max] triples for
    histograms — including the server's [serve.queue_wait_ms] vs
    [serve.exec_ms] split and the DP's per-rule candidate totals. *)
