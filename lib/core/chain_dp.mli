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

    The bottom-up solvers evaluate transition costs through the chain's
    precomputed {!Segment_cost} kernel — multiplications only on the
    hot path, inside {!Segment_cost.row_min} and
    {!Segment_cost.row_minima}, the loops that own the kernel — keep
    their DP tables in flat off-heap {!Dp_tables} structure-of-arrays
    storage (million-task tables never touch the GC), and run in O(n)
    space thanks to prefix sums of the task weights. See
    docs/KERNELS.md for the layout and the tie discipline. *)

type solution = {
  expected_makespan : float;  (** Optimal expectation E(1, n). *)
  schedule : Schedule.t;  (** An optimal placement achieving it. *)
}

val solve : Chain_problem.t -> solution
(** Bottom-up dynamic program (the fast O(n²) path; O(1) kernel-backed
    transitions). *)

val solve_memoized : Chain_problem.t -> solution
(** Faithful transcription of the paper's Algorithm 1 (recursive,
    memoized), on the reference segment-cost evaluation. Returns the
    same solution as {!solve} (to the kernel's 1e-9 relative
    tolerance). *)

val plan : Chain_problem.t -> solution
(** The optimal placement, by the fastest exact solver: {!solve_smawk}
    when the {!Segment_cost.supports_monotone_dc} certificate holds,
    otherwise a counted [dp.smawk_fallbacks] and the {!solve} sweep.
    Bit-for-bit equal to {!solve} — expected makespan and schedule — on
    every input. *)

val solve_dc : Chain_problem.t -> solution
(** Divide-and-conquer solver exploiting decision monotonicity: when
    the segment-cost matrix is inverse-Monge
    ({!Segment_cost.supports_monotone_dc} — whenever no checkpoint or
    recovery cost, the initial recovery included, jumps by more than a
    task weight; a chain of identical tasks qualifies only when
    R − R0 ≤ w), the optimal first-checkpoint index is monotone in
    the suffix start, and the optimum is found in O(n log² n) transition
    evaluations instead of O(n²). Agrees with {!solve} on the expected
    makespan to float rounding (same kernel-backed costs, same
    smallest-index tie-breaking).

    It runs the O(n) monotonicity verification first and {e falls back
    automatically} to the O(n²) {!solve} when it fails — the fallback
    is counted by the [dp.dc_fallbacks] metric, and also triggers when
    the kernel is in overflow-reference mode. *)

val solve_smawk : ?verify:bool -> ?block:int -> Chain_problem.t -> solution
(** Linear-transition solver: SMAWK row minima over the inverse-Monge
    transition matrix, applied to blocks of [block] (default 256)
    states processed right to left with a window that shrinks to the
    leftmost argmin of each finished block. O(n·log block + Σ window
    spans) transition evaluations — linear in n on checkpoint
    instances, where optimal segment lengths grow like √n (the bench
    suite gates the measured [dp.smawk_transitions] growth). Work is
    counted by the [dp.smawk_states]/[dp.smawk_transitions] metrics (in
    addition to the shared [dp.*] ones).

    Agreement contract: identical transition expressions and a
    leftmost-on-ties fold make the result {e bit-for-bit} equal to
    {!solve} — expected makespan and schedule — whenever the
    {!Segment_cost.supports_monotone_dc} certificate holds (the test
    suite cross-checks this, including exact ties).

    All combines share one {!Segment_cost.workspace} of O([block])
    words, allocated once per solve, so the solve allocates O(1) minor
    words in total, not per state (the test suite and the bench
    linearity gate hold it under 1 word per task).

    [verify] (default [true]) checks the certificate first: when it
    fails, the solver counts a [dp.smawk_fallbacks] and falls back to
    {!solve}, like {!solve_dc}. [~verify:false] skips the check and
    forces SMAWK; the result is then only optimal if the instance
    really is monotone (benchmark use). Raises [Invalid_argument] if
    [block < 2]. *)

val dp_values : Chain_problem.t -> float array
(** [dp_values problem] is the table E of optimal expected times for
    the suffixes: element x is the optimal expectation for executing
    tasks x..n-1 (element n is 0). Exposed for tests and analysis. *)

val solve_with_budget : Chain_problem.t -> checkpoints:int -> solution
(** Optimal placement using {e exactly} [checkpoints] checkpoints
    (including the mandatory final one) — the storage-budget variant:
    coordinated checkpoints may be limited by stable-storage capacity
    or I/O reservations. O(n²·k) time. Raises [Invalid_argument] unless
    1 <= checkpoints <= n. *)

val budget_curve : Chain_problem.t -> (int * float) list
(** [(k, optimal expectation with exactly k checkpoints)] for
    k = 1 .. n; its minimum is {!solve}'s value. *)

val first_segment_end : Chain_problem.t -> int
(** The paper's [numTask] output at the outermost recursion level: the
    0-based index of the task after which the first checkpoint is taken
    in an optimal schedule. *)
