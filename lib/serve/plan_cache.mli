(** Bounded plan cache keyed by a canonicalized chain-problem hash.

    Optimal checkpoint placements are scale-invariant: rescaling every
    time quantity of a chain (weights, checkpoint/recovery costs,
    downtime, initial recovery) by s while dividing λ by s leaves the
    optimal placement unchanged and multiplies the optimal expectation
    by s — the products λ·(segment work + cost) that drive Proposition 1
    are untouched. The cache therefore keys on the problem normalized to
    total work 1 (equivalently, on λ·W and the work-relative shape), so
    one stored plan answers every rescaling of the same workload.

    Exactness: entries remember the total work and expectation they were
    stored at. A hit at the {e same} total work returns the stored
    expectation bit-for-bit (the repeated-request fast path the CI smoke
    asserts against the offline solver); a hit at a different scale
    returns the rescaled expectation, exact for power-of-two factors and
    within float rounding otherwise. A key hashes the IEEE-754 bits of
    the canonical floats (n, λ·W, D/W, R₀/W, then w/W, C/W, R/W per
    task), so binary-exponent rescalings — which float arithmetic maps
    to identical canonical values — hash identically by construction,
    and any other difference in a canonical float changes the key.
    A request computes its key once, with {!key}, and hands it to both
    {!find} and, on a miss, {!store}.

    Eviction is least-recently-used at a fixed capacity. All operations
    are mutex-guarded; hits/misses/evictions land on the
    [serve.cache_hits] / [serve.cache_misses] / [serve.cache_evictions]
    counters ([serve.cache_hit_rate] is derived at snapshot time). *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

type key
(** A problem's canonical digest together with its total work W, the
    scale at which a hit is answered. *)

val key : Ckpt_core.Chain_problem.t -> key
(** One pass over the tasks: 8 bytes per canonical float, then one
    digest. *)

val canonical_key : Ckpt_core.Chain_problem.t -> string
(** Hex form of {!key}'s digest — exposed for the rescaling property
    tests and the benchmark. *)

type hit = {
  checkpoints_after : int list;  (** 0-based optimal placement. *)
  expected_makespan : float;
  exact : bool;  (** Same total work as the stored entry (bit-for-bit). *)
}

val find : t -> key -> hit option
(** Counts a cache hit or miss. *)

val store : t -> key -> Ckpt_core.Chain_dp.solution -> unit
(** Insert (or refresh) the solved plan, evicting the least recently
    used entry at capacity. *)

val length : t -> int
val capacity : t -> int
