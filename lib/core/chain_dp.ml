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

let solution_of problem (value, choice) =
  {
    expected_makespan = T.fget value 0;
    schedule = Schedule.of_first_segment_ends problem (T.iget choice);
  }

let default_block = 256

(* The one fill of a chain DP plane: into.{x} = min over j in [x, n−1]
   of cost(x, j) + next.{j + 1}, choice.{x} its leftmost argmin, for
   every row x < n; [into] may be [next] (the unconstrained DP), and
   into.{n} is the caller's. The certified suffix, rows [from, n−1],
   runs the blocked SMAWK of docs/KERNELS.md: blocks of [block] rows
   anchored at [from], right to left, each one far combine over the
   decision window [up+1, hi] of final values and then an intra-block
   divide and conquer; the window then shrinks to hi = choice.{lo},
   exact because leftmost argmins are non-decreasing under the
   certificate. A block whose far window spans a block or more skips
   the divide and conquer when one scan of row lo over the block's own
   decisions stays strictly above row lo's far minimum: by the same
   monotone argmins no row of the block then takes a decision inside
   it. O(n log block + Σ window spans) evaluations — linear on
   checkpoint instances — on one O(block)-word workspace. Rows below
   [from] are one row_min scan each, last, as a row reads every row
   above it; from = n is the O(n²) sweep. *)
let fill ?(block = default_block) kernel ~next ~into ~choice ~from =
  let n = Segment_cost.size kernel in
  let evals =
    if from = n then 0
    else begin
      let ws = Segment_cost.workspace ~rows:(Stdlib.min block (n - from)) in
      let minima = Segment_cost.minima ws and argmins = Segment_cost.argmins ws in
      let checks = ref 0 in
      (* Fold a combine's row minima into [into], the rows' best so far.
         Strictly better, or equal with a smaller index, makes the final
         choice the leftmost argmin whatever order the combines ran in:
         row_min's left-to-right scan. *)
      let combine ~first ~rows ~lo ~hi =
        Segment_cost.row_minima kernel ws ~next ~first ~rows ~lo ~hi;
        for i = 0 to rows - 1 do
          let r = first + i and v = T.fget minima i and j = T.iget argmins i in
          let bv = T.fget into r in
          if v < bv || (Float.equal v bv && j < T.iget choice r) then begin
            T.fset into r v;
            T.iset choice r j
          end
        done
      in
      (* Rows [a, b], right half first: a row's last combine is its
         leaf, so the right half is final before a combine reads it. *)
      let rec solve_block a b =
        if a = b then combine ~first:a ~rows:1 ~lo:a ~hi:a
        else begin
          let m = (a + b) / 2 in
          solve_block (m + 1) b;
          combine ~first:a ~rows:(m - a + 1) ~lo:m ~hi:b;
          solve_block a m
        end
      in
      (* After the far combine, rows lo+1..up hold their far minima: the
         plain DP's [next] is [into], a budget plane's is final. If row
         lo's own decisions, priced against them, lose strictly to its
         far minimum, row lo's leftmost argmin is far, hence every
         row's, and from row up down each far minimum is the value.
         The scan's minimum goes to [minima], free between combines. *)
      let far_suffices lo up =
        let far = T.fget into lo in
        Float.is_finite far
        && begin
             ignore (Segment_cost.row_min kernel ~next ~row:lo ~lo ~hi:up ~into:minima ~at:0);
             checks := !checks + (up - lo + 1);
             T.fget minima 0 > far
           end
      in
      (* Rows fold from infinity; choices start past every decision, so
         a row whose minimum is infinity keeps its own index (the leaf
         decision), as row_min does. *)
      Bigarray.Array1.(fill (sub into from (n - from)) infinity);
      Bigarray.Array1.(fill (sub choice from (n - from)) n);
      let hi = ref (n - 1) and l = ref (from + ((n - 1 - from) / block * block)) in
      while !l >= from do
        let lo = !l in
        let up = Stdlib.min (n - 1) (lo + block - 1) in
        if up + 1 <= !hi then combine ~first:lo ~rows:(up - lo + 1) ~lo:(up + 1) ~hi:!hi;
        (* Only where row up+1's first segment outruns a block. *)
        if not (!hi - up >= block && far_suffices lo up) then solve_block lo up;
        hi := T.iget choice lo;
        l := lo - block
      done;
      Segment_cost.evaluations ws + !checks
    end
  in
  for x = from - 1 downto 0 do
    T.iset choice x (Segment_cost.row_min kernel ~next ~row:x ~lo:x ~hi:(n - 1) ~into ~at:x)
  done;
  (* Row x's scan evaluates its n − x decisions. *)
  let scans = (from * n) - (from * (from - 1) / 2) in
  Metrics.incr ~by:n m_states;
  Metrics.incr ~by:(n - from) m_smawk_states;
  Metrics.incr ~by:(evals + scans) m_transitions;
  Metrics.incr ~by:evals m_smawk_transitions

(* value.{x} = optimal expected time for the suffix x..n−1 (value.{n}
   = 0); choice.{x} = index of the last task of its first segment. Flat
   off-heap Dp_tables, so million-task solves stay off the OCaml heap. *)
let tables ?block problem ~from =
  let n = Chain_problem.size problem in
  let value = T.floats (n + 1) and choice = T.ints n in
  fill ?block (Chain_problem.kernel problem) ~next:value ~into:value ~choice ~from;
  (value, choice)

let solve problem = solution_of problem (tables problem ~from:(Chain_problem.size problem))

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
  { expected_makespan; schedule = Schedule.of_first_segment_ends problem (Array.get choice) }

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
       range already combined into state x, folded as the fill folds:
       from infinity and a choice past every decision, so a row whose
       minimum is infinity keeps its leaf. *)
    let value = T.floats (n + 1) in
    let best = T.floats ~init:infinity n in
    let choice = T.ints ~init:n n in
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
        let v = T.fget scan_min 0 and bv = T.fget best xm in
        if v < bv || (Float.equal v bv && j < T.iget choice xm) then begin
          T.fset best xm v;
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
    solution_of problem (value, choice)
  end

(* --- SMAWK linear-transition solver --------------------------------- *)

(* The fill from the lowest certified row; a plan whose certificate
   leaves rows to the scan counts one dp.smawk_fallbacks. *)
let smawk_tables ?(verify = true) ?(block = default_block) problem =
  if block < 2 then invalid_arg "Chain_dp.solve_smawk: block must be >= 2";
  let from =
    if verify then Segment_cost.certified_from (Chain_problem.kernel problem) else 0
  in
  if from > 0 then Metrics.incr m_smawk_fallbacks;
  tables ~block problem ~from

let solve_smawk ?verify ?block problem =
  solution_of problem (smawk_tables ?verify ?block problem)

let plan problem = solve_smawk problem
let dp_values problem = T.to_float_array (fst (smawk_tables problem))

(* The storage-budget DP: plane k holds, per suffix, the optimal
   expectation with exactly k further checkpoints (infinity when fewer
   than k tasks remain), one fill from plane k − 1. Two value planes
   are live; plane k's choices go to [choices k], and [visit k plane]
   sees each plane once it is final. *)
let budget_planes problem ~planes ~choices ~visit =
  let n = Chain_problem.size problem in
  let kernel = Chain_problem.kernel problem in
  let from = Segment_cost.certified_from kernel in
  let value = Array.init 2 (fun _ -> T.floats ~init:infinity (n + 1)) in
  T.fset value.(0) n 0.0;
  for k = 1 to planes do
    let into = value.(k land 1) in
    T.fset into n infinity;
    fill kernel ~next:value.(1 - (k land 1)) ~into ~choice:(choices k) ~from;
    visit k into
  done

let solve_with_budget problem ~checkpoints =
  let n = Chain_problem.size problem in
  if checkpoints < 1 || checkpoints > n then
    invalid_arg "Chain_dp.solve_with_budget: need 1 <= checkpoints <= n";
  let choice = T.ints (checkpoints * n) in
  let plane k = Bigarray.Array1.sub choice ((k - 1) * n) n in
  let expected_makespan = ref infinity in
  budget_planes problem ~planes:checkpoints ~choices:plane ~visit:(fun _ value ->
      expected_makespan := T.fget value 0);
  (* Segments come in order, each leaving one checkpoint fewer. *)
  let left = ref (checkpoints + 1) in
  let next_choice x =
    decr left;
    T.iget (plane !left) x
  in
  {
    expected_makespan = !expected_makespan;
    schedule = Schedule.of_first_segment_ends problem next_choice;
  }

let budget_curve problem =
  let n = Chain_problem.size problem in
  let choice = T.ints n and curve = ref [] in
  budget_planes problem ~planes:n ~choices:(fun _ -> choice) ~visit:(fun k value ->
      curve := (k, T.fget value 0) :: !curve);
  List.rev !curve

let first_segment_end problem =
  match Schedule.checkpoint_indices (plan problem).schedule with
  | first :: _ -> first
  | [] -> assert false
