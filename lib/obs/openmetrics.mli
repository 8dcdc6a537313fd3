(** Prometheus/OpenMetrics text exposition of a {!Metrics.snapshot}.

    Counters become counter families ([<name>_total]), sums and gauges
    become gauge families, histograms become histogram families with
    cumulative [le] buckets, a [+Inf] bucket, and [_sum]/[_count]
    samples. Derived [<base>_hit_rate] gauges are included. Names are
    prefixed [ckpt_] and sanitized to the OpenMetrics charset
    ([mc.runs] -> [ckpt_mc_runs]); the output ends with the mandatory
    [# EOF] terminator.

    Wired as [--metrics openmetrics] on ckpt-sim / ckpt-chain /
    ckpt-experiments / ckpt-serve. *)

val metric_name : string -> string
(** The sanitized, [ckpt_]-prefixed exposition name of a registry
    metric name. *)

val render : Metrics.snapshot -> string
