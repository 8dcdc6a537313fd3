(** The third Section 6 extension: checkpoint policies for chains when
    failures are {e not} Exponential (Weibull, log-normal, ...).

    No closed-form expectation exists, because the time elapsed since
    the last failure now matters. The policies below are decision
    functions for the policy-driven simulator
    ({!Ckpt_sim.Sim_run.run_chain_policy_stats}); the history-aware ones
    read the processor age from the simulation context and adapt, in the
    spirit of the greedy and dynamic-programming heuristics the paper
    points to (Bouguerra-Trystram-Wagner; Bougeret et al.). *)

type policy = Ckpt_sim.Sim_run.chain_context -> bool
(** All policies built here are thread-safe: they may be invoked
    concurrently from several domains of the parallel Monte-Carlo
    driver (the memoised ones protect their caches with a mutex). *)

type cache_stats = {
  hits : int;  (** Lookups served from a memoised bucket. *)
  misses : int;  (** Lookups that computed and inserted a bucket. *)
  size : int;  (** Entries inserted since the last reset. *)
}

val cache_stats : unit -> cache_stats
(** Aggregate statistics of the memoised policy caches ({!mrl_young}'s
    residual-life buckets and {!hazard_dp}'s per-bucket DP tables),
    summed across every policy created since the last reset. Also
    exported as the [policy.cache_hits] / [policy.cache_misses]
    observability counters. *)

val reset_cache_stats : unit -> unit
(** Zero the counters. Call between estimation campaigns so metrics
    from consecutive estimator calls don't bleed together (the
    experiment harness does this before each campaign). *)

val static : Schedule.t -> policy
(** Replay a fixed placement — e.g. the Exponential-optimal DP schedule
    computed with λ = 1/MTBF, the natural memoryless baseline. *)

val checkpoint_all : policy
val checkpoint_none : policy
(** Never checkpoint before the (mandatory) final one. *)

val work_threshold : threshold:float -> policy
(** Checkpoint once the unsaved work reaches [threshold] (> 0). *)

val hazard_young :
  law:Ckpt_dist.Law.t -> processors:int -> mean_checkpoint:float -> policy
(** Age-adaptive Young policy: at each decision the platform hazard rate
    h(age) = p·hazard(law, age) defines a local "effective MTBF"
    1/h(age), and the task is checkpointed when the unsaved work exceeds
    Young's period sqrt(2·C/h(age)). With decreasing-hazard laws
    (Weibull shape < 1) the policy checkpoints aggressively right after
    a failure and relaxes as the platform stays up. The age is clamped
    to be at least [mean_checkpoint] to keep the hazard finite at 0. *)

val mrl_young :
  law:Ckpt_dist.Law.t -> processors:int -> mean_checkpoint:float -> policy
(** Mean-residual-life variant of {!hazard_young}: the local "effective
    MTBF" is E[X − age | X > age]/p instead of the instantaneous 1/(p·h(age)).
    Smoother than the hazard at small ages for decreasing-hazard laws.
    Ages are bucketed on a logarithmic grid and the (numerically
    integrated) residual life cached per bucket. *)

val risk_bound :
  law:Ckpt_dist.Law.t -> processors:int -> problem:Chain_problem.t -> max_risk:float ->
  policy
(** Greedy "maximise work before the next failure" flavour: checkpoint
    as soon as the conditional probability (given the current age) of a
    failure striking before the next task completes, multiplied by the
    unsaved work at stake, exceeds [max_risk] times the next task's
    work. Falls back to checkpointing when the unsaved work is at risk
    with probability above 50%. *)

val conditional_failure_probability :
  law:Ckpt_dist.Law.t -> processors:int -> age:float -> window:float -> float
(** P(a platform failure strikes within [window] | no failure for
    [age]): 1 − (S(age+window)/S(age))^p for i.i.d. processors of
    survival S (under the approximation that every processor carries
    the same age — exact after a rejuvenating failure and at start). *)

val remaining_expected :
  lambda:float -> downtime:float -> recovery:float -> done_work:float ->
  todo:float -> checkpoint:float -> float
(** Memoryless helper for lookahead policies: the expected additional
    time to finish [todo] work plus its [checkpoint], when [done_work]
    unsaved work is at stake (a failure forces its re-execution), under
    rate [lambda]. Equals Proposition 1 applied to
    W = done_work + todo minus the (sunk) expected progress credit; see
    the implementation for the exact recursion solved. *)

val hazard_dp :
  law:Ckpt_dist.Law.t -> processors:int -> problem:Chain_problem.t -> policy
(** Dynamic-programming heuristic (à la Bougeret et al.): at each
    decision point, freeze the platform hazard at its current value
    λ_eff = p·h(age), and compare one-step lookaheads under Proposition
    1 — (a) checkpoint now, then follow the λ_eff-optimal DP for the
    remaining chain, versus (b) run the next task first. λ_eff is
    bucketed on a logarithmic grid and DP value tables are cached per
    bucket, keeping each decision O(1) after the first in its bucket. *)
