(** Proposition 1 of the paper: the exact expected time to execute a
    work of duration [W] followed by a checkpoint of duration [C] under
    Exponential(λ) failures, with downtime [D] and recovery [R]
    (failures can strike during recovery but not during downtime):

    {v E(T(W,C,D,R,λ)) = e^(λR) (1/λ + D) (e^(λ(W+C)) − 1) v}

    plus the intermediate quantities of its proof ([E(T_lost)],
    [E(T_rec)]) and derived metrics. All functions require λ > 0 and
    non-negative durations ([W + C > 0] where noted) and raise
    [Invalid_argument] otherwise. *)

type params = {
  work : float;  (** W >= 0 *)
  checkpoint : float;  (** C >= 0 *)
  downtime : float;  (** D >= 0 *)
  recovery : float;  (** R >= 0 *)
  lambda : float;  (** λ > 0 *)
}

val make :
  ?downtime:float -> ?recovery:float -> work:float -> checkpoint:float -> lambda:float ->
  unit -> params
(** [downtime] and [recovery] default to 0. *)

val expected : params -> float
(** The closed form of Proposition 1 (Equation 6). Computed with
    [expm1] so it stays accurate in the λ(W+C) ≪ 1 regime typical of
    HPC platforms. *)

val expected_v : work:float -> checkpoint:float -> downtime:float -> recovery:float ->
  lambda:float -> float
(** Unpacked variant of {!expected}. *)

val expected_unchecked : work:float -> checkpoint:float -> downtime:float ->
  recovery:float -> lambda:float -> float
(** Same value as {!expected_v}, but with no argument validation and no
    intermediate [params] record — the hot-path entry point for callers
    that established λ > 0 and non-negative durations once at
    construction time (e.g. [Chain_problem.make], whose dynamic
    programs evaluate this formula O(n²) times per solve). Behaviour on
    invalid arguments is unspecified; everything in this module other
    than this function validates. *)

val expected_lost : params -> float
(** E(T_lost) (Equation 4): expected time wasted in an attempt, given
    that a failure strikes within the next W + C units of time:
    1/λ − (W+C)/(e^(λ(W+C)) − 1). Requires W + C > 0. *)

val expected_recovery : params -> float
(** E(T_rec) (Equation 5): expected downtime-plus-recovery duration,
    accounting for failures during recovery: D·e^(λR) + (e^(λR) − 1)/λ. *)

val expected_failures : params -> float
(** Expected number of failures before the work and its checkpoint
    complete: (e^(λ(W+C)) − 1)·e^(λR) (work-phase failures are
    geometric, and each one costs a further e^(λR) − 1 recovery-phase
    failures on average). *)

val success_probability : params -> float
(** Probability e^(−λ(W+C)) that a single attempt completes without
    failure. *)

val overhead_ratio : params -> float
(** E(T)/W − 1: fractional overhead versus the failure-free,
    checkpoint-free execution. Requires W > 0. *)

val failure_free_time : params -> float
(** W + C, the λ → 0 limit of {!expected}. *)

type breakdown = {
  useful : float;  (** W — productive computation. *)
  checkpoint : float;  (** C — the successful checkpoint. *)
  lost : float;  (** Work and checkpoint time destroyed by failures. *)
  restore : float;  (** Downtime + recovery time (including failed recoveries). *)
}

val breakdown : params -> breakdown
(** Decomposition of the expectation along Equation 3 of the proof:
    E(T) = W + C + (e^(λ(W+C)) − 1)·(E(T_lost) + E(T_rec)), the third
    factor split into its lost-work and restore components. The four
    fields sum to {!expected} (validated in the tests); their ratios are
    the waste breakdown platform operators reason about. *)

(** {1 Second-order statistics}

    The paper stops at the expectation; the same recursive technique
    (condition on the first attempt, exploit memorylessness) yields the
    full second moment in closed form, which the library exposes because
    makespan {e variance} is what tail-latency planning needs. Writing
    a = W + C, q = e^(−λa), and L = (failure time | failure < a):

    E(T²) = a² + ((1−q)/q)·(E(L²) + E(T_rec²)
            + 2(E(L)E(T_rec) + (E(L) + E(T_rec))·E(T)))

    with E(L²) = (2/λ² − e^(−λa)(a² + 2a/λ + 2/λ²)) / (1 − e^(−λa)),
    and E(T_rec²) obtained by the same conditioning applied to the
    downtime-plus-recovery process. All identities are validated against
    simulation in the test suite. *)

val second_moment : params -> float
(** E(T²). Requires W + C > 0. *)

val variance : params -> float
(** Var(T) = E(T²) − E(T)². Tends to 0 as λ → 0. *)

val stddev : params -> float
(** Square root of {!variance}. *)

