(** Platform-level failure event sources.

    A source answers one question for the simulator: given the current
    absolute time, when does the next platform failure strike? Three
    implementations are provided:

    - {!poisson}: the memoryless shortcut for Exponential platforms
      (equivalent to the renewal construction, but O(1) per query);
    - {!renewal}: p independent per-processor renewal processes with an
      arbitrary law, merged — the construction needed for the Section 6
      extension (no closed form, history matters);
    - {!of_trace}: replay of a recorded failure trace.

    Queries must be made with non-decreasing times; scheduled failures
    skipped over by a query (e.g. those falling inside a downtime
    window, during which the paper's model says no failure can occur)
    are consumed and the affected processors' clocks renew.

    {1 Query stability}

    Let [p] be the answer to the last query. While [p] is strictly
    later than a new query time [q], [next_after t q] returns [p] and
    changes no state: no draw, no consumed event. All three
    implementations ({!poisson}, {!renewal} under both rejuvenation
    policies, {!of_times}) keep this contract, so a caller that caches
    [p] may skip every query before it and ask again only once its
    clock reaches [p]; the answers are the same as with every query
    made. {!Ckpt_sim.Sim_run.run_plan} relies on it.

    {1 Simultaneity (exact-tie) semantics}

    All three implementations coalesce simultaneous failures: a query at
    time [t] consumes {e every} event with timestamp [<= t] — including
    several distinct processor failures carrying the {e same} timestamp —
    and returns the first event strictly later than [t]. Two processors
    failing at the same instant are therefore delivered to the simulator
    as a single platform failure: the model's fail-stop event brings the
    whole (single-workload) platform down, so the co-timed failures
    would in any case be absorbed by the downtime window the first one
    opens. Returning an event at exactly the query time is never an
    option — it would violate the strictly-later contract and livelock a
    zero-downtime engine loop.

    Concretely, at an exact-tie query time:
    - {!poisson}: a scheduled event at exactly [t] is absorbed and the
      next arrival is redrawn from [t] (memorylessness makes the redraw
      distribution-preserving);
    - {!renewal}: every per-processor clock showing [<= t] is popped and
      renewed at its own failure instant (or all clocks, under
      [All_processors]);
    - {!of_times}: every recorded time [<= t], duplicates included, is
      skipped in one query. *)

type t

type rejuvenation =
  | Failed_only
      (** Only the processor that failed restarts its failure clock —
          the realistic model advocated in the authors' related work. *)
  | All_processors
      (** Every processor is rejuvenated at each failure — the
          assumption underlying Bouguerra et al.'s analysis, kept here
          for comparison. Indistinguishable from [Failed_only] for
          Exponential laws. *)

val poisson : rate:float -> Ckpt_prng.Rng.t -> t
(** Memoryless source with platform failure rate [rate] > 0. Raises
    [Invalid_argument] unless [rate] is positive and finite. *)

val renewal :
  ?rejuvenation:rejuvenation -> law:Ckpt_dist.Law.t -> processors:int ->
  Ckpt_prng.Rng.t -> t
(** Superposition of [processors] i.i.d. renewal processes. Default
    rejuvenation: [Failed_only]. *)

val of_platform : ?rejuvenation:rejuvenation -> Platform.t -> Ckpt_prng.Rng.t -> t
(** {!poisson} when the platform law is Exponential (using the
    superposed rate p·λproc), {!renewal} otherwise. *)

val of_times : float array -> t
(** Replay a fixed sorted array of absolute failure times; after the
    last one, no further failure occurs ({!next_after} returns
    [infinity]). Duplicate timestamps are allowed and coalesce into one
    delivered failure (see the simultaneity semantics above). Raises
    [Invalid_argument] if the array is not sorted or contains a negative
    or NaN time. *)

val next_after : t -> float -> float
(** [next_after t time] is the absolute time of the first failure
    strictly later than [time]. Consumes all failures at or before
    [time], coalescing exact ties (see the simultaneity semantics
    above). Times passed to successive calls must be non-decreasing. *)
