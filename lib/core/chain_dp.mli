(** Algorithm 1 of the paper: the O(n²) dynamic program computing the
    optimal checkpoint placement for a linear chain (Proposition 3).

    Solvers, by role:
    - {!plan} is the production entry point: every caller that only
      needs an optimal placement goes through it. It is {!solve_smawk}
      with its defaults, so it equals {!solve} bit for bit on every
      input.
    - {!solve} (the bottom-up O(n²) sweep) and {!solve_memoized} (a
      faithful transcription of the paper's memoized recursion, kept on
      the reference per-call [exp]/[expm1] evaluation) are the
      correctness oracles: the test suite, the [ckpt-serve smoke]
      check, E3's comparison and E4's O(n²) slope use them.
    - {!solve_smawk} with its [verify]/[block] knobs and the monotone
      divide and conquer {!solve_dc} stay for the repo benchmark
      ([perfbench/]) and the bench suite's linearity gate, which time
      and count them.

    One fill computes every table but {!solve_memoized}'s and
    {!solve_dc}'s: blocked SMAWK ({!Segment_cost.row_minima}) on the
    certified suffix, rows {!Segment_cost.certified_from} to n−1, and
    one {!Segment_cost.row_min} scan on each row below it. {!solve} is
    the fill with no row certified. A chain that fails the certificate
    only at row 0 (R0 = 0 below a first recovery larger than the first
    task's work) still plans in linear time. The tables are flat
    off-heap {!Dp_tables}, O(n) words; see docs/KERNELS.md for the
    layout and the tie discipline. *)

type solution = {
  expected_makespan : float;  (** Optimal expectation E(1, n). *)
  schedule : Schedule.t;  (** An optimal placement achieving it. *)
}

val solve : Chain_problem.t -> solution
(** Bottom-up dynamic program: one leftmost scan per row, n(n+1)/2
    O(1) kernel-backed transitions. The oracle every other solver is
    held to. *)

val solve_memoized : Chain_problem.t -> solution
(** Faithful transcription of the paper's Algorithm 1 (recursive,
    memoized), on the reference segment-cost evaluation. Returns the
    same solution as {!solve} (to the kernel's 1e-9 relative
    tolerance). *)

val plan : Chain_problem.t -> solution
(** The optimal placement, by the fastest exact solver: {!solve_smawk}
    with its defaults — SMAWK on the certified suffix, a scan below it,
    and one counted [dp.smawk_fallbacks] when any row is scanned.
    Bit-for-bit equal to {!solve} — expected makespan and schedule — on
    every input. *)

val solve_dc : Chain_problem.t -> solution
(** Divide-and-conquer solver exploiting decision monotonicity: when
    the whole chain is certified ({!Segment_cost.supports_monotone_dc}),
    the optimal first-checkpoint index is monotone in the suffix start
    and the optimum takes O(n log² n) transition evaluations. Agrees
    with {!solve} on the expected makespan to float rounding (same
    kernel-backed costs, same smallest-index tie-breaking; a row whose
    every candidate is infinite keeps its own index, as in {!solve}).
    Otherwise it counts a [dp.dc_fallbacks] and runs {!solve}. *)

val solve_smawk : ?verify:bool -> ?block:int -> Chain_problem.t -> solution
(** Linear-transition solver: SMAWK row minima over the certified
    suffix, in blocks of [block] (default 256) rows processed right to
    left with a window that shrinks to the leftmost argmin of each
    finished block. O(n·log block + Σ window spans) transition
    evaluations — linear in n on checkpoint instances, where optimal
    segment lengths grow like √n (the bench suite gates the measured
    [dp.smawk_transitions] growth) — plus n − x for each scanned row x.
    Where optimal segments are longer than a block (small λ), the
    n·log block term falls to one evaluation per row: a block whose
    far window spans a block or more skips its intra-block divide and
    conquer when one scan of its lowest row shows no row of the block
    chooses inside it, an exact check (docs/KERNELS.md). The 10⁶-task
    benchmark chain at λ = 10⁻⁵ costs 12.2 transitions per task, not
    24.2.
    Identical transition expressions and a leftmost-on-ties fold make
    the result {e bit-for-bit} equal to {!solve} on every input. One
    {!Segment_cost.workspace} of O([block]) words serves every combine,
    so the solve allocates O(1) minor words, not per state.

    [verify] (default [true]) takes the suffix from
    {!Segment_cost.certified_from} and counts one [dp.smawk_fallbacks]
    when that leaves rows to the scan. [~verify:false] runs SMAWK on
    every row; the result is then only optimal if the instance really
    is monotone (benchmark use). Raises [Invalid_argument] if
    [block < 2]. *)

val dp_values : Chain_problem.t -> float array
(** [dp_values problem] is {!plan}'s table E of optimal expected times
    for the suffixes: element x is the optimal expectation for
    executing tasks x..n-1 (element n is 0). Exposed for tests and
    analysis. *)

val solve_with_budget : Chain_problem.t -> checkpoints:int -> solution
(** Optimal placement using {e exactly} [checkpoints] checkpoints
    (including the mandatory final one) — the storage-budget variant:
    coordinated checkpoints may be limited by stable-storage capacity
    or I/O reservations. One fill per checkpoint, each reading the plane
    before: O(n·k) on a certified chain, in two value planes and k
    planes of choices. Raises [Invalid_argument] unless
    1 <= checkpoints <= n. *)

val budget_curve : Chain_problem.t -> (int * float) list
(** [(k, optimal expectation with exactly k checkpoints)] for
    k = 1 .. n; its minimum is {!solve}'s value. n fills (O(n²) on a
    certified chain) in O(n) memory. *)

val first_segment_end : Chain_problem.t -> int
(** The paper's [numTask] output at the outermost recursion level: the
    0-based index of the task after which the first checkpoint is taken
    in an optimal schedule. *)
