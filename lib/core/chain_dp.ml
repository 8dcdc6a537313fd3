type solution = { expected_makespan : float; schedule : Schedule.t }

module Metrics = Ckpt_obs.Metrics
module T = Dp_tables

(* Solver metrics: totals are deterministic for a given problem (and,
   under the parallel Monte-Carlo pool, for a given seed) whatever the
   domain count — integer counters merge commutatively. *)
let m_memo_hits = Metrics.counter "dp.memo_hits"
let m_memo_misses = Metrics.counter "dp.memo_misses"
let m_states = Metrics.counter "dp.states_expanded"
let m_transitions = Metrics.counter "dp.transitions"
let m_dc_fallbacks = Metrics.counter "dp.dc_fallbacks"
let m_smawk_states = Metrics.counter "dp.smawk_states"
let m_smawk_transitions = Metrics.counter "dp.smawk_transitions"
let m_smawk_fallbacks = Metrics.counter "dp.smawk_fallbacks"

(* Shared post-processing: turn a table of "end of first segment"
   choices into a Schedule. The choice table is abstracted as a
   function so the Bigarray-backed solvers need no intermediate
   boxed-array copy. *)
let schedule_of_choice_fn problem choice =
  let n = Chain_problem.size problem in
  let placement = Array.make n false in
  let rec mark x =
    if x < n then begin
      let j = choice x in
      placement.(j) <- true;
      mark (j + 1)
    end
  in
  mark 0;
  Schedule.make problem placement

let schedule_of_choices problem choices =
  schedule_of_choice_fn problem (Array.get choices)

let solution_of problem value choice =
  {
    expected_makespan = T.fget value 0;
    schedule = schedule_of_choice_fn problem (T.iget choice);
  }

(* value.(x) = optimal expected time for the suffix x..n-1;
   choice.(x) = index of the last task of its first segment. Both live
   in flat Bigarray SoA tables (Dp_tables) so million-task solves stay
   off the OCaml heap; each row is one Segment_cost.row_min scan, whose
   loop evaluates the transition inline, and bounds are established by
   the loop structure, so the scan carries no per-call validation. *)
let sweep problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let value = T.floats (n + 1) in
  let choice = T.ints n in
  for x = n - 1 downto 0 do
    Metrics.incr m_states;
    Metrics.incr ~by:(n - x) m_transitions;
    T.iset choice x
      (Segment_cost.row_min kernel ~next:value ~row:x ~lo:x ~hi:(n - 1) ~into:value ~at:x)
  done;
  (value, choice)

let solve problem =
  let value, choice = sweep problem in
  solution_of problem value choice

(* Faithful transcription of Algorithm 1 (DPMAKESPAN), with 0-based
   indices: DPMAKESPAN(x) treats tasks x..n-1 and returns the couple
   (optimal expectation, index of the task preceding the first
   checkpoint). Memoization makes each instance computed once. Kept on
   the reference segment-cost evaluation (fresh exp/expm1 per call) and
   on plain boxed tables, so it doubles as the correctness oracle for
   the Bigarray-backed solvers. *)
let solve_memoized problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let memo : (float * int) option array = Array.make n None in
  let rec dpmakespan x =
    match memo.(x) with
    | Some result ->
        Metrics.incr m_memo_hits;
        result
    | None ->
        Metrics.incr m_memo_misses;
        Metrics.incr m_states;
        (* n − x segment evaluations: the initial no-further-checkpoint
           candidate plus the n − 1 − x loop iterations (just the base
           segment when x = n − 1) — the same count `solve` reports, and
           the observability test asserts the two stay equal. *)
        Metrics.incr ~by:(n - x) m_transitions;
        let result =
          if x = n - 1 then (Segment_cost.reference_cost kernel ~first:x ~last:x, x)
          else begin
            (* Initial candidate: no further checkpoint, one segment to
               the end (checkpointed after the final task). *)
            let best = ref (Segment_cost.reference_cost kernel ~first:x ~last:(n - 1)) in
            let num_task = ref (n - 1) in
            for j = x to n - 2 do
              let exp_succ, _ = dpmakespan (j + 1) in
              let cur = exp_succ +. Segment_cost.reference_cost kernel ~first:x ~last:j in
              if cur < !best then begin
                best := cur;
                num_task := j
              end
            done;
            (!best, !num_task)
          end
        in
        memo.(x) <- Some result;
        result
  in
  let expected_makespan, _ = dpmakespan 0 in
  let choice = Array.init n (fun x -> snd (dpmakespan x)) in
  { expected_makespan; schedule = schedule_of_choices problem choice }

let dp_values problem = T.to_float_array (fst (sweep problem))

(* --- Monotone divide-and-conquer solver ----------------------------- *)

(* The transition cost decomposes as c(x, j) = a(x)·E(j) − pre(x)
   (Segment_cost.supports_monotone_dc); when a is non-increasing and E
   non-decreasing the matrix f(x, j) = c(x, j) + V(j+1) is
   inverse-Monge, so the smallest optimal first-checkpoint index is
   non-decreasing in the suffix start x. solve_dc exploits that with a
   divide and conquer over the states: solve the right half of an
   interval, account the right half's decisions for the left half's
   states with an offline monotone row-minima divide and conquer, then
   recurse left — O(n log² n) transition evaluations worst case
   (~n log n over the benchmarked range) instead of O(n²), every one of
   them through the same Segment_cost tables as `solve` so the two
   agree to float rounding. *)
let solve_dc problem =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  if not (Segment_cost.supports_monotone_dc kernel) then begin
    (* Monotonicity check failed (cost spike larger than a task weight,
       or the kernel is in overflow-reference mode): the divide and
       conquer would prune decisions it may not prune, so fall back to
       the exhaustive O(n²) solver. *)
    Metrics.incr m_dc_fallbacks;
    solve problem
  end
  else begin
    (* value.(x) is final for x >= the right edge of the interval being
       solved; best/choice accumulate the minima over every decision
       range already combined into state x. *)
    let value = T.floats (n + 1) in
    let best = T.floats ~init:infinity n in
    let choice = T.ints n in
    let scan_min = T.floats 1 in
    (* Row minima of f over states xlo..xhi and decisions jlo..jhi
       (xhi <= jlo required, so value.(j+1) is final throughout):
       scan the middle state's restricted range, split the decision
       range at its argmin. Ties keep the smallest j, matching `solve`'s
       scan order, so the smallest-argmin monotonicity applies. *)
    let rec combine xlo xhi jlo jhi =
      if xlo <= xhi then begin
        let xm = (xlo + xhi) / 2 in
        Metrics.incr ~by:(jhi - jlo + 1) m_transitions;
        let j =
          Segment_cost.row_min kernel ~next:value ~row:xm ~lo:jlo ~hi:jhi ~into:scan_min
            ~at:0
        in
        if T.fget scan_min 0 < T.fget best xm then begin
          T.fset best xm (T.fget scan_min 0);
          T.iset choice xm j
        end;
        combine xlo (xm - 1) jlo j;
        combine (xm + 1) xhi j jhi
      end
    in
    (* Invariant: value is final on r+1..n when rec_solve l r runs. *)
    let rec rec_solve l r =
      if l = r then begin
        Metrics.incr m_states;
        combine l l l l;
        T.fset value l (T.fget best l)
      end
      else begin
        let m = (l + r) / 2 in
        rec_solve (m + 1) r;
        combine l m m r;
        rec_solve l m
      end
    in
    rec_solve 0 (n - 1);
    solution_of problem value choice
  end

(* --- SMAWK linear-transition solver --------------------------------- *)

(* Fold one combine's row minima (rows first .. first + rows − 1, read
   from the SMAWK workspace) into the global tables. The tie rule
   (strictly better, or equal with a smaller index) makes the final
   choice the globally leftmost argmin whatever order the combines ran
   in — `solve`'s single left-to-right scan semantics, and one rule
   solve_dc's plain `<` fold does not guarantee. *)
let fold_rows ws best choice ~first ~rows =
  let minima = Segment_cost.minima ws and argmins = Segment_cost.argmins ws in
  for i = 0 to rows - 1 do
    let r = first + i in
    let v = T.fget minima i and j = T.iget argmins i in
    let bv = T.fget best r in
    if v < bv || (Float.equal v bv && j < T.iget choice r) then begin
      T.fset best r v;
      T.iset choice r j
    end
  done

let combine kernel ws value best choice ~first ~rows ~lo ~hi =
  Segment_cost.row_minima kernel ws ~next:value ~first ~rows ~lo ~hi;
  fold_rows ws best choice ~first ~rows

(* Intra-block decisions of states [a, b]: the solve_dc recursion with
   SMAWK combines, right half first so value is final on the columns
   each combine reads. *)
let rec solve_block kernel ws value best choice a b =
  if a = b then begin
    combine kernel ws value best choice ~first:a ~rows:1 ~lo:a ~hi:a;
    T.fset value a (T.fget best a)
  end
  else begin
    let m = (a + b) / 2 in
    solve_block kernel ws value best choice (m + 1) b;
    combine kernel ws value best choice ~first:a ~rows:(m - a + 1) ~lo:m ~hi:b;
    solve_block kernel ws value best choice a m
  end

(* Blocked SMAWK chain solve; see docs/KERNELS.md for the sketch. The
   DP is "online" (f(x, j) needs the already-final value.(j+1)), which
   plain SMAWK cannot handle; blocks of [block] states processed right
   to left restore an offline shape: one far combine over the block's
   rows × the decision window [up+1, hi] (all values final), then an
   intra-block divide and conquer mirroring solve_dc's but with SMAWK
   row minima. After a block, the window shrinks to hi = choice.(lo) —
   exact, because leftmost argmins are non-decreasing in x under the
   certificate. Total evaluations: O(n log block + Σ window spans),
   linear in n for the checkpoint instances (optimal segment lengths
   grow like √n, so windows stay narrow — the bench linearity gate
   pins this). Every combine runs on one workspace of O(block) words
   allocated here, so the solve allocates nothing per state. *)
let solve_smawk ?(verify = true) ?(block = 256) problem =
  if block < 2 then invalid_arg "Chain_dp.solve_smawk: block must be >= 2";
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  if verify && not (Segment_cost.supports_monotone_dc kernel) then begin
    (* Same certificate as solve_dc: without total monotonicity SMAWK's
       pruning is unsound, so fall back to the exhaustive sweep. *)
    Metrics.incr m_smawk_fallbacks;
    solve problem
  end
  else begin
    let value = T.floats (n + 1) in
    let best = T.floats ~init:infinity n in
    let choice = T.ints n in
    let ws = Segment_cost.workspace ~rows:(Stdlib.min block n) in
    let hi = ref (n - 1) in
    let l = ref ((n - 1) / block * block) in
    while !l >= 0 do
      let lo = !l in
      let up = Stdlib.min (n - 1) (lo + block - 1) in
      (* Far decisions [up+1, hi]: value.(j+1) final for all of them. *)
      if up + 1 <= !hi then
        combine kernel ws value best choice ~first:lo ~rows:(up - lo + 1) ~lo:(up + 1) ~hi:!hi;
      solve_block kernel ws value best choice lo up;
      hi := T.iget choice lo;
      l := lo - block
    done;
    let evals = Segment_cost.evaluations ws in
    Metrics.incr ~by:n m_states;
    Metrics.incr ~by:n m_smawk_states;
    Metrics.incr ~by:evals m_transitions;
    Metrics.incr ~by:evals m_smawk_transitions;
    solution_of problem value choice
  end

let plan problem = solve_smawk problem

(* value.(k·(n+1) + x): optimal expectation for the suffix x..n-1 using
   exactly k further checkpoints; infinity when infeasible. Flat SoA
   layout (row-major in k) like the other solvers. *)
let budget_tables problem max_k =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let width = n + 1 in
  let value = T.floats ~init:infinity ((max_k + 1) * width) in
  let choice = T.ints ((max_k + 1) * n) in
  T.fset value n 0.0;
  let plane k = Bigarray.Array1.sub value (k * width) width in
  for k = 1 to max_k do
    (* An infeasible suffix has value infinity in plane k − 1, so its
       transitions are infinite and never win the strict-< scan. *)
    let next = plane (k - 1) and into = plane k in
    for x = n - 1 downto 0 do
      Metrics.incr m_states;
      Metrics.incr ~by:(n - x) m_transitions;
      T.iset choice ((k * n) + x)
        (Segment_cost.row_min kernel ~next ~row:x ~lo:x ~hi:(n - 1) ~into ~at:x)
    done
  done;
  (value, choice, width)

let solve_with_budget problem ~checkpoints =
  let n = Chain_problem.size problem in
  if checkpoints < 1 || checkpoints > n then
    invalid_arg "Chain_dp.solve_with_budget: need 1 <= checkpoints <= n";
  let value, choice, width = budget_tables problem checkpoints in
  let placement = Array.make n false in
  let rec mark k x =
    if x < n then begin
      let j = T.iget choice ((k * n) + x) in
      placement.(j) <- true;
      mark (k - 1) (j + 1)
    end
  in
  mark checkpoints 0;
  {
    expected_makespan = T.fget value (checkpoints * width);
    schedule = Schedule.make problem placement;
  }

let budget_curve problem =
  let n = Chain_problem.size problem in
  let value, _, width = budget_tables problem n in
  List.init n (fun i -> (i + 1, T.fget value ((i + 1) * width)))

let first_segment_end problem =
  match Schedule.checkpoint_indices (plan problem).schedule with
  | first :: _ -> first
  | [] -> assert false
