(** Fault-injector combinators over failure sources.

    An injector is, like {!Failure_stream.next_after}, a function from
    the current absolute time to the time of the next failure strictly
    later than it, queried with non-decreasing times. The combinators
    below build the fault vocabulary of the deterministic scenario
    harness ({!Ckpt_scenarios}) on top of the base streams: correlated
    aftershock cascades, transient (masked) faults, hazard rates that
    drift over time, and hazards coupled to the engine phase (failures
    concentrated in checkpoint/recovery I/O).

    All randomness comes from the [Ckpt_prng.Rng.t] passed at
    construction, and every combinator caches its pending failure, so
    for a fixed seed and a fixed (non-decreasing) query sequence the
    delivered failure times are bit-reproducible — the property the
    scenario registry's digests pin. Repeated queries strictly before
    the pending failure return it unchanged (query stability), matching
    the {!Failure_stream} contract.

    Injectors are single-domain mutable state, exactly like the streams
    they wrap: do not share one across domains. *)

type t

type phase = Work | Checkpoint | Recovery | Downtime
(** Mirror of the simulator's phase vocabulary, kept here so this
    library does not depend on the simulator. *)

val phase_equal : phase -> phase -> bool

val next : t -> float -> float
(** Query the next failure strictly after the given time. *)

val of_stream : Failure_stream.t -> t
(** Wrap a base stream. *)

val to_fun : t -> float -> float
(** The shape {!Ckpt_sim.Sim_run} expects as [next_failure]. *)

val never : t
(** No failure, ever: the failure-free control scenario. *)

val merge : t -> t -> t
(** Earliest-of-two superposition. Both sources observe every query, so
    their events at or before it are consumed on both sides. *)

val masked : survive_prob:float -> Ckpt_prng.Rng.t -> t -> t
(** Transient-fault model: each failure of the wrapped source is masked
    (survived — caught by retry/ECC, never observed by the workload)
    with probability [survive_prob] in [0, 1); unmasked failures behave
    fail-stop as usual. *)

val aftershocks :
  ?max_pending:int ->
  probability:float -> rate:float -> window:float -> Ckpt_prng.Rng.t -> t -> t
(** Correlated / cascading failures: every failure delivered by the
    combined source triggers, with the given [probability], a follow-up
    failure at an [Exponential rate] gap — kept only if it falls within
    [window] — and aftershocks cascade in turn (a sub-critical branching
    process: [probability < 1] keeps cascades finite). A cascade is
    spawned once the query clock passes its trigger failure; base
    failures absorbed invisibly inside the wrapped stream (e.g. during
    a skipped window) do not cascade. [max_pending] (default 1024)
    bounds the pending-aftershock heap as a safety valve. *)

val exp_phase_modulated :
  base_rate:float -> multiplier:(phase -> float) -> phase:(unit -> phase) ->
  Ckpt_prng.Rng.t -> t
(** Memoryless failures whose rate is [base_rate * multiplier ph] where
    [ph] is the phase reported by the [phase] callback at query time —
    the "failures during checkpoint/recovery I/O" model: wire [phase]
    to a cell updated by the engine's [on_phase] hook and give
    [Checkpoint]/[Recovery] a multiplier > 1. A multiplier of 0 makes a
    phase failure-free. The pending draw is redrawn (from the query
    point) whenever the phase changed since it was made — sound because
    the law is memoryless per phase. *)

val nonhomogeneous :
  ?horizon:float -> rate:(float -> float) -> rate_max:float -> Ckpt_prng.Rng.t -> t
(** Non-homogeneous Poisson process with instantaneous rate [rate t],
    via Ogata thinning under the constant envelope [rate_max] — the
    drifting-hazard model (infant mortality, wear-out ramps). [rate]
    must stay within [0, rate_max] (checked at every proposal).
    Proposals past [horizon] (default 1e15) return [infinity]. *)
