(** Precomputed O(1)-transition kernel for the Proposition 1 segment
    cost over a fixed chain.

    The chain dynamic programs (Proposition 3 and its variants) evaluate

    {v E(first, last) = e^(λ·R_first) (1/λ + D) (e^(λ·(W(first,last) + C_last)) − 1) v}

    once per DP transition — O(n²) times per solve. The exponential
    factors over a fixed chain separate into per-index tables:

    {v col.(j)   = e^(λ·prefix_work(j+1)) · e^(λ·C_j)   (one column table)
   inv.(i)   = e^(−λ·prefix_work(i))
   pre.(i)   = e^(λ·R_i) · (1/λ + D)        (R_i = recovery paid by a
                                              segment starting at i) v}

    so a transition cost factors as
    [pre.(first) · (col.(last) · inv.(first) − 1)] — two loads, two
    multiplications and a subtraction, with no per-call [exp]/[expm1].
    [col.(j)] is the rounded product [eP · eC] of the two exponentials,
    so the transition has the bits of
    [pre.(first) · (eP.(last+1) · eC.(last) · inv.(first) − 1)]
    evaluated left to right.

    {1 Bulk evaluation}

    The expression is defined once, in this module, together with the
    loops that evaluate it in bulk: {!row_min} (the leftmost scan of one
    DP row over a decision range) and {!row_minima} (SMAWK row minima of
    a block of rows). Inside them the cost is inlined and its float
    stays unboxed, so they allocate nothing per transition whatever the
    build flags — a build with [-opaque] inlines nothing across
    modules, so a per-transition call from another module would pay a
    call and a boxed float each time. Solvers call these loops once per
    row or per combine.

    {1 Accuracy and range guards}

    - {b Small arguments.} When [a = λ·(W + C_last)] is below
      {!small_threshold} the product form cancels catastrophically
      ([e^a − 1] computed as a product of table entries minus 1), so the
      kernel falls back to [expm1 a] for that transition. The threshold
      adapts to the chain: the product form's relative error is
      O(λ·total_span·ε/a), so the cutoff scales with λ·total_span to
      keep the kernel within a 1e-9 relative tolerance of the reference
      evaluation (validated by a property test across the boundary).
    - {b Overflow.} When [λ·(total_work + max C)] exceeds
      {!overflow_cutoff} the tables themselves would lose accuracy or
      overflow, so the kernel abandons the tables wholesale
      ({!uses_tables} is [false]) and every call takes the reference
      [expm1] path. The cutoff is conservative: both paths stay finite
      up to λ·(W+C) ≈ 709 and overflow to [infinity] together beyond
      it. *)

type t

val create :
  lambda:float ->
  downtime:float ->
  prefix_work:float array ->
  checkpoint_costs:float array ->
  recovery_costs:float array ->
  t
(** [create ~lambda ~downtime ~prefix_work ~checkpoint_costs
    ~recovery_costs] builds the tables for a chain of
    [n = Array.length checkpoint_costs] tasks. [prefix_work] has length
    [n + 1] with [prefix_work.(0) = 0]; [recovery_costs.(i)] is the
    recovery paid by a segment starting at task [i] (so index 0 carries
    the initial recovery). Numeric validation (λ > 0, non-negative
    durations, non-decreasing prefix) is the {e caller's} contract —
    [Chain_problem.make] enforces it — only the array shapes are
    checked here, once per chain. O(n) time and space; the tables are
    filled in place, with no per-element allocation. Per task it calls
    [exp] once for the prefix and once for its reciprocal (table mode
    only), plus once per run of equal C (table mode only) and once per
    run of equal R: a cost equal to its predecessor's reuses the
    predecessor's exponential. *)

val size : t -> int
(** Number of tasks [n]. *)

val cost : t -> first:int -> last:int -> float
(** The Proposition 1 expected duration of the segment executing tasks
    [first..last] and checkpointing after [last]. O(1), no
    transcendental call on the table path. Raises [Invalid_argument]
    unless [0 <= first <= last < size t]; the validating public API is
    [Chain_problem.segment_expected]. *)

val growth_unsafe : t -> first:int -> last:int -> float
(** The failure-growth factor [e^(λ·(W(first,last) + C_last)) − 1]
    alone, without the [pre.(first)] recovery/downtime factor — for
    callers whose recovery cost depends on DP state rather than on
    position (the moldable-chain DP hoists its own
    [e^(λR)·(1/λ + D)] factor). Same guards as {!cost}, bounds checks
    elided: the caller must establish [0 <= first <= last < size t];
    anything else is undefined behaviour. *)

val row_min :
  t ->
  next:Dp_tables.floats ->
  row:int ->
  lo:int ->
  hi:int ->
  into:Dp_tables.floats ->
  at:int ->
  int
(** [row_min t ~next ~row ~lo ~hi ~into ~at] scans the decisions
    [j = lo .. hi] of DP row [row] left to right, evaluating the
    transition [cost t ~first:row ~last:j +. next.{j + 1}], stores the
    minimum in [into.{at}] and returns its leftmost argmin: strict [<]
    from [infinity], so [lo] when no transition is below [infinity].
    Every scan-based chain solver runs its rows through this loop.
    Unchecked: the caller must establish
    [0 <= row <= lo <= hi < size t], [hi + 1 < dim next] and
    [at < dim into]. [into] may be [next]: the store follows the scan. *)

type workspace
(** Scratch for {!row_minima}, allocated once per solve and reused by
    every call: for up to [rows] rows, a [2·rows] int buffer of
    surviving columns (all recursion levels, back to back) and
    [rows]-long minima and argmin tables — O(rows) words, off-heap,
    independent of the column count and of [n]. *)

val workspace : rows:int -> workspace
(** A workspace for calls of at most [rows] rows. Raises
    [Invalid_argument] if [rows < 1]. *)

val row_minima :
  t -> workspace -> next:Dp_tables.floats -> first:int -> rows:int -> lo:int -> hi:int -> unit
(** SMAWK row minima of the transition matrix restricted to rows
    [first .. first + rows - 1] and decisions [lo .. hi] — O(rows +
    columns) evaluations when the matrix is totally monotone (rows at
    or above {!certified_from}). Writes row [first + i]'s
    minimum to [(minima ws).{i}] and its leftmost argmin to
    [(argmins ws).{i}], and adds the evaluations made to
    {!evaluations}. Rows are (first, stride, count) progressions and
    surviving columns live in the workspace buffer, so the call
    allocates nothing. Ties: REDUCE pops a stacked column only on a
    strictly better value and INTERPOLATE keeps the leftmost minimum,
    so each row's argmin is exactly {!row_min}'s. Raises
    [Invalid_argument] if [rows] exceeds the workspace; otherwise
    unchecked like {!row_min} ([lo <= hi] gives a non-empty range;
    an empty one is a no-op). *)

val minima : workspace -> Dp_tables.floats
(** Row minima of the last {!row_minima} call, by row position. *)

val argmins : workspace -> Dp_tables.ints
(** Leftmost argmins of the last {!row_minima} call, by row position. *)

val evaluations : workspace -> int
(** Transitions evaluated by every {!row_minima} call on this
    workspace so far. *)

val reference_cost : t -> first:int -> last:int -> float
(** The reference evaluation — fresh [exp]/[expm1] per call, the exact
    code path of [Expected_time.expected_unchecked] — used by the
    correctness oracle ([Chain_dp.solve_memoized]) and the
    kernel-agreement property tests. *)

val uses_tables : t -> bool
(** [false] when the overflow guard rejected the tables at build time;
    every transition then takes the reference path. *)

val small_threshold : t -> float
(** The adaptive small-argument cutoff this kernel uses (for tests and
    diagnostics). *)

val overflow_cutoff : float
(** The wholesale-fallback bound on [λ·(total_work + max C)]
    (currently 690, safely below [log max_float] ≈ 709.78). *)

val certified_from : t -> int
(** The first row of the certified suffix: the smallest [r] such that
    the DP matrix on rows and decisions [r .. n−1] is inverse-Monge, so
    leftmost argmins are non-decreasing in the suffix start (the total
    monotonicity SMAWK needs). With [c(x, j) = a(x)·E(j) − pre.(x)],
    [a(x) = pre.(x)·e^(−λ·prefix(x))] and
    [E(j) = e^(λ·(prefix(j+1) + C_j))], index [i] checks exactly on the
    raw durations that [R_(i+1) − R_i ≤ w_i] and
    [C_(i+1) − C_i ≥ −w_(i+1)], which fail only where a recovery or
    checkpoint cost jumps by more than a task weight; the result is one
    past the last failing index. Row 0 compares the first recovery R
    with R0, which {!Chain_problem.make} defaults to 0 (identical tasks
    with R > w are certified from row 1) and {!Chain_problem.uniform}
    to R. [n] when {!uses_tables} is [false]: saturated costs tie and
    break the argument. *)

val supports_monotone_dc : t -> bool
(** [certified_from t = 0]: the whole matrix is certified. *)
