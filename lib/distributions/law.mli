(** Probability laws for failure inter-arrival times.

    The paper's framework assumes Exponential failures (Section 2); the
    other laws support the Section 6 extension and the synthetic cluster
    logs ({!Ckpt_failures}), following the literature it cites (Weibull
    and log-normal fits to production failure logs). *)

type t =
  | Deterministic of float  (** Point mass at a positive value. *)
  | Exponential of { rate : float }  (** Rate λ > 0; mean 1/λ. *)
  | Weibull of { shape : float; scale : float }
      (** Survival exp(-(x/scale)^shape). [shape] < 1 gives the
          decreasing hazard observed in cluster logs. *)
  | Log_normal of { mu : float; sigma : float }
      (** log X ~ Normal(mu, sigma). *)
  | Uniform of { lo : float; hi : float }  (** Uniform on [lo, hi). *)
  | Gamma of { shape : float; scale : float }

val validate : t -> (t, string) result
(** Check parameter constraints: every parameter is finite (not NaN,
    not infinite), rates, shapes, scales, sigmas and deterministic
    values are positive, and a uniform law has [0 <= lo < hi]. *)

val exponential : rate:float -> t
(** Validated constructor; raises [Invalid_argument] on bad parameters.
    Same for the other constructors below. *)

val weibull : shape:float -> scale:float -> t
val log_normal : mu:float -> sigma:float -> t
val uniform : lo:float -> hi:float -> t
val gamma : shape:float -> scale:float -> t
val deterministic : float -> t

val weibull_of_mean : shape:float -> mean:float -> t
(** Weibull with given shape, rescaled to the requested mean; convenient
    when comparing laws at equal MTBF. *)

val log_normal_of_mean : sigma:float -> mean:float -> t
(** Log-normal with given sigma and requested mean. *)

val mean : t -> float
val variance : t -> float

val pdf : t -> float -> float
val cdf : t -> float -> float

val survival : t -> float -> float
(** [survival law x = 1 - cdf law x], computed without cancellation. *)

val hazard : t -> float -> float
(** Instantaneous failure rate pdf / survival. *)

val quantile : t -> float -> float
(** Inverse CDF; closed form where available, bisection for Gamma. *)

val sample : t -> Ckpt_prng.Rng.t -> float
(** Draw one value. *)

val conditional_remaining_sample : t -> elapsed:float -> Ckpt_prng.Rng.t -> float
(** Draw the residual time to failure given [elapsed] time without
    failure, i.e. from P(X - elapsed <= . | X > elapsed). For
    [Exponential] this equals a fresh {!sample} (memorylessness); for
    the other laws it depends on [elapsed] — this is exactly the
    difficulty discussed in Section 6 of the paper. *)

val expected_min : t -> upto:float -> float
(** E[min(X, a)] = ∫_0^a S(x) dx: the expected time spent before either
    finishing a window of length [a] or failing inside it. Closed form
    for Exponential, Deterministic, Uniform; numerically integrated
    otherwise (geometric Simpson panels, relative accuracy ~1e-9). *)

val mean_residual_life : t -> elapsed:float -> float
(** [mean_residual_life law ~elapsed] is E[X − t | X > t] =
    (∫_t^∞ S(x) dx) / S(t). Closed form for Exponential (1/λ, the
    memoryless signature), Deterministic and Uniform; numerically
    integrated otherwise (relative accuracy ~1e-6). For decreasing-
    hazard laws (Weibull shape < 1, log-normal) this {e grows} with
    [elapsed] — the survival-of-the-fittest effect that the Section 6
    heuristics exploit. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
