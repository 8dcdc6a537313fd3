(** Executes benchmark {!Cases} and produces a {!Schema.run}.

    Micro cases go through Bechamel ([Benchmark.run] with the monotonic
    clock instance, GC stabilization on); the raw measurements are
    reduced to per-iteration timings (dropping the lowest-run samples,
    which are dominated by clock overhead) and summarized with
    {!Ckpt_stats.Welford}. Macro cases are timed per-invocation with
    {!Ckpt_obs.Clock} after one untimed warmup. Either way a case
    yields mean / sample stddev / normal 99% CI — the inputs the
    noise-aware comparator needs — plus its total wall time. *)

val run :
  ?filter:(Cases.case -> bool) ->
  ?on_case:(string -> Schema.case_result -> unit) ->
  quick:bool ->
  unit ->
  Schema.run
(** Runs every case passing [filter] (default: all), in registry order.
    [on_case] is invoked after each case (progress reporting — the
    library itself never prints). Resets {!Ckpt_obs.Metrics} first and
    embeds the end-of-run snapshot, so the [metrics] object reflects
    exactly this run's work. *)
