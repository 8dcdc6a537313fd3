(** Replication driver: estimate the expected makespan of a checkpointed
    workload by repeated simulation, with confidence intervals.

    Every estimator executes on the {!Parallel_exec} domain pool. The
    common optional knobs:

    - [?domains] — pool size (default
      {!Domain_team.default_domains}). Estimates are {e bit-identical}
      for any domain count given the same seed: run [r] draws from the
      substream ["run-r"] of the caller's [rng] seed regardless of which
      domain executes it, and the reduction tree is fixed by the batch
      grid, not by the pool.
    - [?target_ci] — switches to adaptive sampling: [runs] becomes the
      initial round, which is doubled until the 99% CI half-width falls
      below [target_ci *. |mean|] or the cap is hit.
    - [?max_runs] — hard cap for adaptive sampling (default
      [64 * runs]; ignored without [target_ci]).

    With [domains > 1] the simulation callbacks (notably
    [estimate_chain_policy]'s [decide]) run concurrently on several
    domains and must be thread-safe; the policies in
    {!Ckpt_core.Nonmemoryless} are. *)

type estimate = {
  mean : float;
  stddev : float;
  std_error : float;
  runs : int;
  ci99 : float * float;  (** 99% normal-approximation interval. *)
  min : float;
  max : float;
}

val contains : float * float -> float -> bool
(** [contains (lo, hi) x] tests interval membership. *)

val pp_estimate : Format.formatter -> estimate -> unit

type failure_model =
  | Poisson_rate of float  (** Platform-level Exponential rate λ. *)
  | Platform of Ckpt_failures.Platform.t
  | Platform_rejuvenating of Ckpt_failures.Platform.t
      (** Renewal processes with all-processor rejuvenation. *)

val estimate_segments :
  ?domains:int ->
  ?target_ci:float ->
  ?max_runs:int ->
  model:failure_model ->
  downtime:float ->
  runs:int ->
  rng:Ckpt_prng.Rng.t ->
  Sim_run.segment list ->
  estimate
(** Independent replications of {!Sim_run.run_segments}: run [r] draws
    its failures from the substream ["run-r"] of [rng], so individual
    runs are reproducible and order-independent. The segments are
    compiled once per campaign and every run executes on
    {!Sim_run.run_plan}, which equals {!Sim_run.run_segments} bit for
    bit. *)

val estimate_chain_policy :
  ?domains:int ->
  ?target_ci:float ->
  ?max_runs:int ->
  model:failure_model ->
  downtime:float ->
  initial_recovery:float ->
  runs:int ->
  rng:Ckpt_prng.Rng.t ->
  decide:(Sim_run.chain_context -> bool) ->
  Ckpt_dag.Task.t array ->
  estimate
(** Same replication scheme for a chain under a checkpoint policy, on
    {!Sim_run.run_chain_policy_stats}. [decide] must be thread-safe
    when [domains > 1]. *)

type distribution = {
  samples : float array;  (** Sorted makespan samples. *)
  estimate : estimate;
}

val collect_segments :
  ?domains:int ->
  model:failure_model ->
  downtime:float ->
  runs:int ->
  rng:Ckpt_prng.Rng.t ->
  Sim_run.segment list ->
  distribution
(** Like {!estimate_segments} but keeps every sample, for tail analysis
    (checkpointing narrows the makespan distribution, not only its
    mean — see the [tail_latency] example). The sample array is
    identical for any domain count. *)

val quantile : distribution -> float -> float
(** [quantile d q] with q in [0, 1]. *)

val estimate_chain_policy_on_logs :
  ?domains:int ->
  downtime:float ->
  initial_recovery:float ->
  logs:Ckpt_failures.Trace.t list ->
  decide:(Sim_run.chain_context -> bool) ->
  Ckpt_dag.Task.t array ->
  estimate
(** One execution per recorded trace (e.g. one per synthetic cluster-log
    sample), replayed on the domain pool; the estimate aggregates across
    traces. *)
