(** Process-wide metrics: counters, float sums, gauges and fixed-bucket
    histograms, sharded so the hot path never takes a lock.

    {1 Sharding and determinism}

    Every emission ([incr], [add], [set], [observe]) writes to the
    {e current collector} of the calling domain, looked up through
    domain-local storage — no mutex, no atomic contention. By default
    each domain owns one lazily-created shard; an executor can override
    the current collector for a scope with {!with_collector} and merge
    the scoped collectors explicitly with {!merge_into}.

    This is how the parallel Monte-Carlo pool keeps metrics
    bit-identical for any domain count, mirroring its batch-grid Welford
    reduction: each work batch gets its own collector, and the batch
    collectors are merged in batch-index order after the join —
    float-summing metrics therefore accumulate in an order that depends
    only on the (fixed) batch grid, never on which domain ran which
    batch. Integer metrics are deterministic under any merge order;
    float sums are deterministic as long as they are emitted inside
    batch-scoped collectors (or from a single domain).

    {1 Metric kinds}

    Metrics are registered as [Engine] (deterministic — same value for
    the same seed whatever the domain count or machine load) or [Timing]
    (wall-clock derived — varies run to run). Reports keep the two
    groups separate so deterministic output can be compared exactly.

    {!snapshot} and {!reset} are meant for quiescent moments (campaign
    boundaries, CLI exit): they walk every live shard. *)

type kind = Engine | Timing

(** {1 Registration}

    Registration is idempotent: registering the same name with the same
    class and kind returns the existing handle; a mismatch raises
    [Invalid_argument]. Registration takes a mutex — do it at module
    initialisation or campaign setup, not per event. *)

type counter

val counter : ?kind:kind -> string -> counter
(** Monotonically increasing integer. Default kind: [Engine]. *)

type sum

val sum : ?kind:kind -> string -> sum
(** Float accumulator (e.g. simulated time lost to re-execution). *)

type gauge

val gauge : ?kind:kind -> string -> gauge
(** Last-written float value (e.g. utilization %, CI width). *)

type histogram

val histogram : ?kind:kind -> string -> buckets:float array -> histogram
(** Fixed-bucket histogram. [buckets] are strictly increasing upper
    bounds: a value [v] lands in the first bucket with [v <= bound], and
    in the implicit [+inf] overflow bucket when above the last bound
    (NaN also overflows). Also tracks the sum and count of observations.
    Raises [Invalid_argument] if [buckets] is empty, non-increasing, or
    contains NaN. *)

(** {1 Emission (hot path, lock-free)} *)

val incr : ?by:int -> counter -> unit
val add : sum -> float -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val observe_counts :
  histogram -> counts:int array -> total:float -> observations:int -> unit
(** Adds observations made elsewhere, in one step: [counts] (one per
    bucket, then the overflow bucket), the sum [total] of the observed
    values and their number, as {!merge_into} adds a histogram. Nothing
    is added when [observations = 0]. A batch of values tallied from
    [0.0] and added once to a fresh collector leaves the same bits as
    {!observe} per value. Raises [Invalid_argument] when [counts] does
    not have one slot per bucket plus one. *)

(** {1 Scoped collectors} *)

type collector

val create_collector : unit -> collector
(** A fresh, unregistered collector; emissions reach it only through
    {!with_collector}, and its contents only reach reports through
    {!merge_into}. *)

val current : unit -> collector
(** The calling domain's current collector (its default shard unless
    inside {!with_collector}). *)

val with_collector : collector -> (unit -> 'a) -> 'a
(** Route this domain's emissions to the given collector for the scope
    of the callback (exception-safe). *)

val merge_into : dst:collector -> collector -> unit
(** Fold a collector into [dst]: counters and sums add, gauges take the
    source value when set, histogram buckets add. *)

(** {1 Snapshots and reports} *)

type histogram_data = {
  bounds : float array;
  counts : int array;  (** One slot per bound plus the overflow slot. *)
  total : float;  (** Sum of observed values. *)
  observations : int;
}

type value =
  | Counter of int
  | Sum of float
  | Gauge of float option  (** [None] when never set. *)
  | Histogram of histogram_data

type snapshot = (string * kind * value) list
(** Sorted by metric name; includes every registered metric, even ones
    never emitted to. *)

val snapshot : unit -> snapshot
(** Merge all live shards (in shard-creation order). Call at quiescent
    points only: emissions racing with a snapshot may or may not be
    included. *)

val reset : unit -> unit
(** Zero every shard — campaign boundaries, so consecutive campaigns
    don't bleed into each other. Registrations are kept. *)

val find : snapshot -> string -> (kind * value) option
(** Typed lookup by metric name — the programmatic counterpart of
    grepping a rendered report (used by the bench subsystem's
    required-keys validation and the test suites). *)

val hit_rates : snapshot -> snapshot
(** The derived rows only: every counter pair [<base>_hits] /
    [<base>_misses] yields a [<base>_hit_rate] gauge —
    [hits / (hits + misses)], or an unset gauge ([Gauge None]) when
    both counters are zero (caches never consulted), so a 0/0 pair
    renders as [n/a] instead of a division artifact. *)

val render_table : snapshot -> string
(** Two plain-text tables: deterministic engine metrics, then timings.
    Counter pairs named [<base>_hits]/[<base>_misses] get a derived
    [<base>_hit_rate] row. *)

val to_json_fields : snapshot -> string
(** The body [metrics:{...},timings:{...}] (keys quoted) without
    enclosing braces, for embedding in a larger JSON object. Keys are
    sorted, so the deterministic part is byte-identical for identical
    snapshots. *)

val to_json : snapshot -> string
(** [to_json_fields] wrapped in braces: an object with the [metrics]
    and [timings] sub-objects. *)
