(** Deterministic multicore execution of Monte-Carlo replication
    campaigns (OCaml 5 domains).

    A campaign of [runs] replications is partitioned into fixed-size
    batches on an absolute run-index grid, and each round runs its
    batches as the tasks of a {!Domain_team} round. Each batch is handed
    whole to the {!sampler}: its first and last run, and a [root]
    rebuilt from the shared [seed]; run [r] draws its randomness from
    {!Ckpt_prng.Rng.substream_run}[ root r]. The sampler reports the
    batch's values in run order, and the pool reduces them into the
    batch's own {!Ckpt_stats.Welford} accumulator. Batch accumulators
    are merged in batch-index order.

    {b Determinism guarantee}: neither the sample set nor the reduction
    tree depends on the number of domains, so every function below
    returns bit-identical results for any [domains >= 1] given the same
    [seed] and [runs] — the property [test/test_parallel.ml] checks for
    domain counts 1, 2, 3 and 7.

    {b One team per campaign}: each call opens one team in the calling
    domain for all its rounds, sized
    [min domains (batches of the largest round the campaign can run)],
    and shuts it down on return. [domains] defaults to
    {!Domain_team.default_domains}.

    {b Exception safety}: if any replication raises (e.g.
    {!Sim_run.Livelock}), the unclaimed batches are cancelled, the round
    drains, the team's domains are joined, and the first exception
    recorded is re-raised — no domain is ever leaked, and the next
    campaign runs normally.

    {b Metrics}: each batch runs under its own fresh
    {!Ckpt_obs.Metrics} collector, and the batch collectors are merged
    into the caller's collector in batch-index order after the round, so
    float sums are bit-identical for any domain count too. A raising
    round's collectors are dropped.

    The sampler runs concurrently on several domains: it must not mutate
    shared state (state created per batch, or derived from the provided
    {!Ckpt_prng.Rng.t}, is the intended style). *)

val batch_size : int
(** Runs per batch (256). Part of the determinism contract: changing it
    changes the reduction tree, hence the low-order bits of estimates. *)

type sampler = first:int -> last:int -> Ckpt_prng.Rng.t -> (float -> unit) -> unit
(** [sampler ~first ~last root report] runs one batch: runs [first] to
    [last], inclusive, calling [report] with each run's value in run
    order. Run [r] must draw from [Rng.substream_run root r] (or, equal
    and cheaper, from [Rng.substream_of_prefix (Rng.run_prefix root) r]).
    It runs inside the batch's collector, so it may keep its own
    accounting for the batch and emit it once before it returns. The
    pool raises [Invalid_argument] when a sampler reports more or fewer
    values than its batch has runs. *)

val per_run : (int -> Ckpt_prng.Rng.t -> float) -> sampler
(** [per_run sample] calls [sample r rng_r] for each run [r] of a
    batch, with [rng_r] its run substream. *)

val estimate :
  ?domains:int ->
  runs:int ->
  seed:int64 ->
  sampler ->
  Ckpt_stats.Welford.t
(** [estimate ~runs ~seed sampler] reduces the values of runs
    [0 .. runs-1] into one accumulator. Raises [Invalid_argument]
    if [runs <= 0] or [domains < 1]. *)

val collect :
  ?domains:int ->
  runs:int ->
  seed:int64 ->
  sampler ->
  float array * Ckpt_stats.Welford.t
(** Like {!estimate} but also returns the samples, indexed by run (not
    sorted); each slot is written by exactly one domain. *)

val estimate_adaptive :
  ?domains:int ->
  runs:int ->
  max_runs:int ->
  target_ci:float ->
  seed:int64 ->
  sampler ->
  Ckpt_stats.Welford.t
(** [estimate_adaptive ~runs ~max_runs ~target_ci ~seed sampler] starts
    with [runs] replications and doubles the campaign until the 99%
    normal-approximation CI half-width falls to [target_ci *. |mean|]
    (relative target) or the hard cap [max_runs] is reached, whichever
    comes first. Extending a campaign reuses the same per-run
    substreams, so the first [n] samples of a longer campaign are
    exactly the samples of a shorter one; the convergence decisions
    depend only on (deterministic) estimates and the final accumulator
    is bit-identical for any domain count. A mean of exactly 0 never
    meets a relative target and runs to the cap. Raises
    [Invalid_argument] if [runs <= 0], [max_runs < runs] or
    [target_ci <= 0]. *)
