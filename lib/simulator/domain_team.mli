(** Persistent worker-domain team: the one domain pool behind every
    deterministic data-parallel sweep.

    A team spawns its workers once; between rounds they park on a
    condition variable and are woken by a generation bump, so a round
    costs two mutex handshakes rather than thread creation.
    {!Parallel_exec} opens one team per Monte-Carlo campaign and runs
    every doubling round's batch grid on it; [Chain_dp.solve_par] and
    [Moldable_chain.solve] open one per solve and run one round per DP
    row.

    {1 Determinism contract}

    [run] hands out task indices [0..tasks-1] through an atomic cursor;
    {e which} domain executes a task, and in what order tasks complete,
    is scheduling-dependent. Results are bit-identical for any domain
    count if and only if the caller obeys the same contract as
    {!Parallel_exec}'s batch grid:

    - each task writes only state owned by its index (disjoint slots in
      a preallocated array), and
    - the caller merges those slots {e in task order} after [run]
      returns.

    Under that contract the observable result is a pure function of the
    task decomposition — which the caller must keep independent of the
    domain count (fixed chunk grids, never [tasks / domains]-sized
    chunks). *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns [domains − 1] worker domains (the
    caller is the remaining participant). Default:
    {!default_domains}[ ()]. [domains = 1] creates a team with no
    workers whose [run] is purely sequential. Raises
    [Invalid_argument] if [domains < 1]. *)

val size : t -> int
(** Total participants including the calling domain. *)

val run : t -> tasks:int -> (participant:int -> int -> unit) -> unit
(** [run t ~tasks fn] executes [fn ~participant i] once for every [i]
    in [0..tasks-1], work-stealing across the team; the calling domain
    participates. [participant] names the team member running the task,
    in [[0, size t)] with [0] the caller; it depends on scheduling, so
    it may key telemetry (per-participant busy time) but never results.
    Returns when every task has run. If a task raises, remaining
    unclaimed tasks are abandoned (already-claimed ones finish), and the
    first exception recorded is re-raised here after the round drains —
    the team stays usable. Rounds do not overlap: [run] is not
    reentrant and must always be called from the same (owning) domain.
    Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Wake and join the workers. Idempotent. The team cannot be used
    afterwards. *)

val with_team : ?domains:int -> (t -> 'a) -> 'a
(** [with_team fn] runs [fn] with a fresh team and guarantees
    {!shutdown} on all exits. *)

val default_domains : unit -> int
(** The default team size: [min 8 (Domain.recommended_domain_count ())]. *)
