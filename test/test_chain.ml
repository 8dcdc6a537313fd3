(* Tests for chain instances, schedules and the Proposition 3 dynamic
   program. *)

module Task = Ckpt_dag.Task
module Generate = Ckpt_dag.Generate
module Rng = Ckpt_prng.Rng
module Expected_time = Ckpt_core.Expected_time
module Chain_problem = Ckpt_core.Chain_problem
module Schedule = Ckpt_core.Schedule
module Chain_dp = Ckpt_core.Chain_dp
module Brute_force = Ckpt_core.Brute_force

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let sample_problem () =
  Chain_problem.uniform ~downtime:0.2 ~lambda:0.05 ~checkpoint:1.0 ~recovery:1.5
    [ 3.0; 5.0; 2.0; 4.0 ]

let random_problem seed n =
  let rng = Rng.create ~seed in
  let spec = Generate.uniform_costs () in
  let dag = Generate.chain rng spec ~n in
  Chain_problem.of_dag ~downtime:0.3 ~initial_recovery:0.5
    ~lambda:(Rng.float_range rng 0.005 0.2) dag

let test_problem_construction () =
  let p = sample_problem () in
  Alcotest.(check int) "size" 4 (Chain_problem.size p);
  close "total work" 14.0 (Chain_problem.total_work p);
  close "segment work 1..2" 7.0 (Chain_problem.segment_work p ~first:1 ~last:2);
  close "initial recovery defaults to R" 1.5 (Chain_problem.recovery_before p 0);
  close "recovery before task 2" 1.5 (Chain_problem.recovery_before p 2);
  Alcotest.check_raises "empty chain rejected" (Invalid_argument "Chain_problem: empty chain")
    (fun () -> ignore (Chain_problem.make ~lambda:0.1 []))

let test_of_dag_requires_chain () =
  let rng = Rng.create ~seed:3L in
  let spec = Generate.uniform_costs () in
  let dag = Generate.diamond rng spec ~width:2 in
  Alcotest.check_raises "diamond rejected"
    (Invalid_argument "Chain_problem.of_dag: DAG is not a linear chain") (fun () ->
      ignore (Chain_problem.of_dag ~lambda:0.1 dag))

let test_segment_expected_matches_formula () =
  let p = sample_problem () in
  let direct =
    Expected_time.expected_v ~work:10.0 ~checkpoint:1.0 ~downtime:0.2 ~recovery:1.5
      ~lambda:0.05
  in
  close "segment 0..2" direct (Chain_problem.segment_expected p ~first:0 ~last:2)

let test_make_renumbers () =
  (* Ids that are not 0..n-1 are rewritten in list order; tasks whose
     id already matches their position are kept as they are. *)
  let ids = [ 7; 1; 9; 3 ] in
  let tasks =
    List.map (fun id -> Task.make ~id ~work:(1.0 +. float_of_int id) ()) ids
  in
  let p = Chain_problem.make ~lambda:0.1 tasks in
  List.iteri
    (fun i (original : Task.t) ->
      let task = p.Chain_problem.tasks.(i) in
      Alcotest.(check int) (Printf.sprintf "task %d renumbered" i) i task.Task.id;
      Alcotest.(check string) "name kept" original.Task.name task.Task.name;
      Alcotest.(check bool) "costs kept" true
        (Float.equal original.Task.work task.Task.work);
      Alcotest.(check bool) "matching id keeps the task itself" (original.Task.id = i)
        (task == original))
    tasks;
  close "prefix work follows list order" (8.0 +. 2.0 +. 10.0 +. 4.0)
    (Chain_problem.total_work p)

let test_with_lambda () =
  let p = sample_problem () in
  let p2 = Chain_problem.with_lambda p 0.1 in
  Alcotest.(check bool) "lambda updated" true (Float.equal p2.Chain_problem.lambda 0.1);
  close "structure preserved" (Chain_problem.total_work p) (Chain_problem.total_work p2)

let test_schedule_constructors () =
  let p = sample_problem () in
  let all = Schedule.checkpoint_all p in
  Alcotest.(check int) "all has n checkpoints" 4 (Schedule.checkpoint_count all);
  let none = Schedule.checkpoint_none p in
  Alcotest.(check int) "none has only the final" 1 (Schedule.checkpoint_count none);
  Alcotest.(check (list int)) "final index" [ 3 ] (Schedule.checkpoint_indices none);
  let every2 = Schedule.every_k p 2 in
  Alcotest.(check (list int)) "every 2" [ 1; 3 ] (Schedule.checkpoint_indices every2);
  let byidx = Schedule.of_indices p [ 0 ] in
  Alcotest.(check (list int)) "indices + forced final" [ 0; 3 ]
    (Schedule.checkpoint_indices byidx);
  Alcotest.check_raises "final checkpoint enforced"
    (Invalid_argument "Schedule.make: the final task must be checkpointed") (fun () ->
      ignore (Schedule.make p [| true; false; false; false |]))

let test_schedule_segments_partition () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  Alcotest.(check (list (pair int int))) "segments" [ (0, 1); (2, 3) ] (Schedule.segments s)

let test_by_work_threshold () =
  let p = sample_problem () in
  (* works 3 5 2 4; threshold 6: cumulative 3, 8 -> ckpt at 1; then 2, 6 -> ckpt at 3. *)
  let s = Schedule.by_work_threshold p ~threshold:6.0 in
  Alcotest.(check (list int)) "threshold placement" [ 1; 3 ] (Schedule.checkpoint_indices s)

let test_expected_makespan_is_sum () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  let manual =
    Chain_problem.segment_expected p ~first:0 ~last:1
    +. Chain_problem.segment_expected p ~first:2 ~last:3
  in
  close "makespan = sum of segment expectations" manual (Schedule.expected_makespan s)

let test_to_sim_segments () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  match Schedule.to_sim_segments s with
  | [ seg1; seg2 ] ->
      close "seg1 work" 8.0 seg1.Ckpt_sim.Sim_run.work;
      close "seg1 ckpt" 1.0 seg1.Ckpt_sim.Sim_run.checkpoint;
      close "seg1 recovery = R0" 1.5 seg1.Ckpt_sim.Sim_run.recovery;
      close "seg2 work" 6.0 seg2.Ckpt_sim.Sim_run.work
  | other -> Alcotest.fail (Printf.sprintf "expected 2 segments, got %d" (List.length other))

let test_to_string () =
  let p = sample_problem () in
  let s = Schedule.of_indices p [ 1 ] in
  Alcotest.(check string) "rendering" "[T1 T2 | T3 T4 |]" (Schedule.to_string s)

let test_dp_single_task () =
  let p = Chain_problem.uniform ~lambda:0.1 ~checkpoint:1.0 ~recovery:1.0 [ 5.0 ] in
  let solution = Chain_dp.solve p in
  close "single-task DP = Prop 1 segment"
    (Chain_problem.segment_expected p ~first:0 ~last:0)
    solution.Chain_dp.expected_makespan

let test_dp_matches_brute_force_fixed () =
  let p = sample_problem () in
  let dp = Chain_dp.solve p in
  let bf = Brute_force.chain_best p in
  close "DP equals brute force" bf.Chain_dp.expected_makespan dp.Chain_dp.expected_makespan;
  close "schedules agree on cost"
    (Schedule.expected_makespan bf.Chain_dp.schedule)
    (Schedule.expected_makespan dp.Chain_dp.schedule)

let test_memoized_matches_iterative () =
  for seed = 1 to 10 do
    let p = random_problem (Int64.of_int seed) (5 + (seed mod 20)) in
    let a = Chain_dp.solve p and b = Chain_dp.solve_memoized p in
    close
      (Printf.sprintf "seed %d: memoized = iterative" seed)
      a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan;
    Alcotest.(check bool) "same placement" true
      (Schedule.equal a.Chain_dp.schedule b.Chain_dp.schedule)
  done

let test_dc_matches_solve () =
  (* Generated chains satisfy the monotonicity precheck (cost steps are
     smaller than every task weight), so this exercises the real divide
     and conquer, not the fallback. *)
  for seed = 1 to 12 do
    let p = random_problem (Int64.of_int (seed + 5_000)) (3 + (7 * seed)) in
    let a = Chain_dp.solve p and b = Chain_dp.solve_dc p in
    close
      (Printf.sprintf "seed %d: divide-and-conquer = iterative" seed)
      a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan;
    Alcotest.(check bool) "same placement" true
      (Schedule.equal a.Chain_dp.schedule b.Chain_dp.schedule)
  done

let test_dc_extreme_rates () =
  (* Tiny λ·W (every transition below the kernel's small-argument
     cutoff) and large λ·W (product-form tables everywhere): the three
     solvers agree at both ends. *)
  let check name p =
    let dp = Chain_dp.solve p in
    let dc = Chain_dp.solve_dc p in
    let memo = Chain_dp.solve_memoized p in
    close (name ^ ": dc = solve") dp.Chain_dp.expected_makespan
      dc.Chain_dp.expected_makespan;
    close (name ^ ": memoized = solve") dp.Chain_dp.expected_makespan
      memo.Chain_dp.expected_makespan
  in
  let works = List.init 16 (fun i -> 1.0 +. float_of_int (i mod 5)) in
  check "tiny lambda"
    (Chain_problem.uniform ~downtime:0.1 ~lambda:1e-8 ~checkpoint:0.3 ~recovery:0.4 works);
  check "large lambda"
    (Chain_problem.uniform ~downtime:0.1 ~lambda:3.0 ~checkpoint:0.3 ~recovery:0.4 works)

let test_dc_fallback_on_nonmonotone () =
  (* A recovery-cost spike bigger than the adjacent task weight breaks
     the inverse-Monge precheck: solve_dc must detect it, count a
     dp.dc_fallbacks tick, and return exactly solve's answer (it runs
     solve). *)
  let tasks =
    List.mapi
      (fun i w ->
        Task.make ~id:i
          ~name:(Printf.sprintf "T%d" (i + 1))
          ~work:w ~checkpoint_cost:0.5
          ~recovery_cost:(if i = 3 then 50.0 else 0.5)
          ())
      [ 2.0; 3.0; 2.0; 4.0; 2.0; 3.0; 2.0; 5.0 ]
  in
  let p = Chain_problem.make ~downtime:0.2 ~lambda:0.2 tasks in
  Alcotest.(check bool) "precheck rejects the spike" false
    (Ckpt_core.Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
  Ckpt_obs.Metrics.reset ();
  let dp = Chain_dp.solve p in
  let dc = Chain_dp.solve_dc p in
  Alcotest.(check bool) "fallback result is bit-identical to solve" true
    (Float.equal dp.Chain_dp.expected_makespan dc.Chain_dp.expected_makespan);
  Alcotest.(check bool) "fallback placement equals solve's" true
    (Schedule.equal dp.Chain_dp.schedule dc.Chain_dp.schedule);
  (match Ckpt_obs.Metrics.find (Ckpt_obs.Metrics.snapshot ()) "dp.dc_fallbacks" with
  | Some (_, Ckpt_obs.Metrics.Counter n) ->
      Alcotest.(check int) "one fallback counted" 1 n
  | Some _ -> Alcotest.fail "dp.dc_fallbacks is not a counter"
  | None -> Alcotest.fail "dp.dc_fallbacks not recorded")

(* --- SMAWK solver --------------------------------------------------- *)

let bit_identical name (a : Chain_dp.solution) (b : Chain_dp.solution) =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected makespan bit-for-bit (%.17g vs %.17g)" name
       a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan)
    true
    (Float.equal a.Chain_dp.expected_makespan b.Chain_dp.expected_makespan);
  Alcotest.(check bool) (name ^ ": same placement") true
    (Schedule.equal a.Chain_dp.schedule b.Chain_dp.schedule)

let test_smawk_matches_solve () =
  (* Bit-for-bit agreement — makespan AND schedule — on every fixture
     family: the sample problem, random chains, and both extreme-rate
     kernel modes. *)
  bit_identical "sample" (Chain_dp.solve (sample_problem ()))
    (Chain_dp.solve_smawk (sample_problem ()));
  for seed = 1 to 12 do
    let p = random_problem (Int64.of_int (seed + 9_100)) (1 + (13 * seed)) in
    bit_identical
      (Printf.sprintf "seed %d" seed)
      (Chain_dp.solve p) (Chain_dp.solve_smawk p)
  done;
  let works = List.init 16 (fun i -> 1.0 +. float_of_int (i mod 5)) in
  List.iter
    (fun (name, lambda) ->
      let p =
        Chain_problem.uniform ~downtime:0.1 ~lambda ~checkpoint:0.3 ~recovery:0.4 works
      in
      bit_identical name (Chain_dp.solve p) (Chain_dp.solve_smawk p))
    [ ("tiny lambda", 1e-8); ("large lambda", 3.0) ]

let test_smawk_ties_and_blocks () =
  (* Uniform chains maximise exact float ties between candidate
     splits; the leftmost-on-ties fold must still reproduce solve's
     scan. Block size must not matter either. *)
  List.iter
    (fun n ->
      let p =
        Chain_problem.uniform ~downtime:0.2 ~lambda:(10.0 /. float_of_int n)
          ~checkpoint:0.1 ~recovery:0.2
          (List.init n (fun _ -> 1.0))
      in
      bit_identical (Printf.sprintf "uniform n=%d" n) (Chain_dp.solve p)
        (Chain_dp.solve_smawk p))
    [ 1; 2; 3; 17; 100; 257 ];
  let p = random_problem 4_242L 500 in
  let reference = Chain_dp.solve p in
  List.iter
    (fun block ->
      bit_identical
        (Printf.sprintf "block=%d" block)
        reference
        (Chain_dp.solve_smawk ~block p))
    [ 2; 3; 7; 64; 1024 ];
  Alcotest.check_raises "block bounds checked"
    (Invalid_argument "Chain_dp.solve_smawk: block must be >= 2") (fun () ->
      ignore (Chain_dp.solve_smawk ~block:1 p))

let test_smawk_fallback_on_nonmonotone () =
  (* Same spike instance as the dc fallback test: solve_smawk must
     detect the broken certificate, count dp.smawk_fallbacks, and
     return exactly solve's answer — through the parallel sweep too. *)
  let tasks =
    List.mapi
      (fun i w ->
        Task.make ~id:i
          ~name:(Printf.sprintf "T%d" (i + 1))
          ~work:w ~checkpoint_cost:0.5
          ~recovery_cost:(if i = 3 then 50.0 else 0.5)
          ())
      [ 2.0; 3.0; 2.0; 4.0; 2.0; 3.0; 2.0; 5.0 ]
  in
  let p = Chain_problem.make ~downtime:0.2 ~lambda:0.2 tasks in
  Ckpt_obs.Metrics.reset ();
  let dp = Chain_dp.solve p in
  bit_identical "fallback (sequential)" dp (Chain_dp.solve_smawk p);
  bit_identical "fallback (parallel sweep)" dp (Chain_dp.solve_smawk ~domains:4 p);
  let snapshot = Ckpt_obs.Metrics.snapshot () in
  let counter name =
    match Ckpt_obs.Metrics.find snapshot name with
    | Some (_, Ckpt_obs.Metrics.Counter n) -> n
    | Some _ -> Alcotest.fail (name ^ " is not a counter")
    | None -> Alcotest.fail (name ^ " not recorded")
  in
  Alcotest.(check int) "two smawk fallbacks counted" 2 (counter "dp.smawk_fallbacks");
  (* Both fallback counters are registered at module init, so they are
     present in every snapshot (hence in `--metrics` output) even when
     never incremented in this process run. *)
  Alcotest.(check int) "dc fallback counter present and untouched" 0
    (counter "dp.dc_fallbacks")

let test_solve_par_matches_solve () =
  (* Chunked parallel sweep: bit-identical to solve for any domain
     count, including rows split across several chunks (n beyond two
     grid cells exercises the team path). *)
  let p = random_problem 31_337L 700 in
  let reference = Chain_dp.solve p in
  List.iter
    (fun domains ->
      bit_identical
        (Printf.sprintf "domains=%d" domains)
        reference
        (Chain_dp.solve_par ~domains p))
    [ 1; 2; 4; 8 ];
  (* Rows at least two 4096-state chunks long go to the team: here the
     first 105, each split over three chunks. *)
  let p = random_problem 27_182L 8_296 in
  let reference = Chain_dp.solve p in
  List.iter
    (fun domains ->
      bit_identical
        (Printf.sprintf "n=8296, domains=%d" domains)
        reference
        (Chain_dp.solve_par ~domains p))
    [ 2; 3 ]

let qcheck_smawk_agreement =
  (* Cross-solver agreement property: solve_smawk ≡ solve_dc ≡ solve on
     random Monge instances and on adversarial non-Monge ones (random
     recovery spikes force the counted fallback path). solve_smawk is
     held to bit-for-bit equality including the schedule (its
     leftmost-on-ties fold reproduces solve's scan exactly); solve_dc
     keeps its documented guarantee — equal makespan to float rounding
     and an equally-optimal placement whose ties may resolve to a
     different (equal-cost) index. *)
  QCheck.Test.make ~name:"smawk = dc = iterative DP (Monge and non-Monge)" ~count:120
    QCheck.(triple (int_range 1 80) (int_range 0 10_000) bool)
    (fun (n, seed, spike) ->
      let p0 = random_problem (Int64.of_int (seed + 314_000)) n in
      let p =
        if not spike then p0
        else begin
          (* Knock out the certificate with a recovery spike wider than
             any task weight. *)
          let tasks =
            List.mapi
              (fun i (t : Task.t) ->
                if i = n / 2 then
                  Task.with_costs t ~checkpoint_cost:t.Task.checkpoint_cost
                    ~recovery_cost:(t.Task.recovery_cost +. 1_000.0)
                else t)
              (Array.to_list p0.Chain_problem.tasks)
          in
          Chain_problem.make ~downtime:0.3 ~initial_recovery:0.5
            ~lambda:p0.Chain_problem.lambda tasks
        end
      in
      let dp = Chain_dp.solve p in
      let smawk = Chain_dp.solve_smawk p in
      let dc = Chain_dp.solve_dc p in
      Float.equal smawk.Chain_dp.expected_makespan dp.Chain_dp.expected_makespan
      && Schedule.equal smawk.Chain_dp.schedule dp.Chain_dp.schedule
      && Float.abs (dc.Chain_dp.expected_makespan -. dp.Chain_dp.expected_makespan)
         <= 1e-9 *. dp.Chain_dp.expected_makespan
      && Schedule.equal dc.Chain_dp.schedule smawk.Chain_dp.schedule)

let qcheck_dc_matches_solve =
  QCheck.Test.make ~name:"divide-and-conquer = iterative DP on random chains" ~count:80
    QCheck.(pair (int_range 1 60) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 88_000)) n in
      let dp = Chain_dp.solve p in
      let dc = Chain_dp.solve_dc p in
      Float.abs (dc.Chain_dp.expected_makespan -. dp.Chain_dp.expected_makespan)
      <= 1e-9 *. dp.Chain_dp.expected_makespan
      && Schedule.equal dp.Chain_dp.schedule dc.Chain_dp.schedule)

let test_dp_extreme_rates () =
  (* Large lambda: checkpoint after every task is optimal.
     Tiny lambda with costly checkpoints: a single final checkpoint wins. *)
  let works = [ 5.0; 5.0; 5.0; 5.0; 5.0 ] in
  let risky = Chain_problem.uniform ~lambda:2.0 ~checkpoint:0.01 ~recovery:0.01 works in
  let solution = Chain_dp.solve risky in
  Alcotest.(check int) "high lambda: checkpoint everywhere" 5
    (Schedule.checkpoint_count solution.Chain_dp.schedule);
  let safe = Chain_problem.uniform ~lambda:1e-7 ~checkpoint:2.0 ~recovery:2.0 works in
  let solution = Chain_dp.solve safe in
  Alcotest.(check int) "tiny lambda: only the final checkpoint" 1
    (Schedule.checkpoint_count solution.Chain_dp.schedule)

let test_dp_values_structure () =
  let p = sample_problem () in
  let values = Chain_dp.dp_values p in
  Alcotest.(check int) "table length n+1" 5 (Array.length values);
  close "terminal value" 0.0 values.(4);
  let solution = Chain_dp.solve p in
  close "values.(0) is the optimum" solution.Chain_dp.expected_makespan values.(0);
  (* Suffix optima decrease as the suffix shrinks. *)
  for x = 0 to 3 do
    Alcotest.(check bool) "monotone suffix values" true (values.(x) > values.(x + 1))
  done

let test_first_segment_end () =
  let p = sample_problem () in
  let solution = Chain_dp.solve p in
  Alcotest.(check int) "numTask output"
    (List.hd (Schedule.checkpoint_indices solution.Chain_dp.schedule))
    (Chain_dp.first_segment_end p)

(* The 100k-task chain of the scale tests: uniform checkpoint and
   recovery costs, and λ·W = 400, under Segment_cost.overflow_cutoff,
   so the kernel keeps its tables and the SMAWK certificate holds. (At
   λ = 0.01, λ·W = 4000: the kernel drops its tables, the certificate
   fails and SMAWK falls back to the quadratic sweep.) *)
let scale_problem () =
  let works = List.init 100_000 (fun i -> 1.0 +. float_of_int (i mod 7)) in
  let p = Chain_problem.uniform ~lambda:0.001 ~checkpoint:0.5 ~recovery:0.5 works in
  Alcotest.(check bool) "SMAWK certificate holds" true
    (Ckpt_core.Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
  p

let test_smawk_scales () =
  (* 100k tasks through the front-door solver: must run in well under
     a second. *)
  let p = scale_problem () in
  let elapsed, solution = Ckpt_obs.Clock.time (fun () -> Chain_dp.solve_smawk p) in
  Alcotest.(check bool)
    (Printf.sprintf "solved 100k tasks in %.2fs" elapsed)
    true (elapsed < 5.0);
  Alcotest.(check bool) "finite positive result" true
    (Float.is_finite solution.Chain_dp.expected_makespan
     && solution.Chain_dp.expected_makespan > 0.0)

let test_smawk_allocation_free () =
  (* The SMAWK solve allocates its tables and one workspace up front
     and nothing per state: under one minor word per task in total, in
     the same build the benchmark uses. Its plan equals the
     divide-and-conquer solver's bit for bit. *)
  let p = scale_problem () in
  let n = Chain_problem.size p in
  ignore (Chain_dp.solve_smawk p);
  let before = Gc.minor_words () in
  let solution = Chain_dp.solve_smawk p in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d tasks (%.4f per task, bound 1)" words n
       (words /. float_of_int n))
    true
    (words < float_of_int n);
  bit_identical "smawk = dc at 100k tasks" (Chain_dp.solve_dc p) solution

let test_budget_dp () =
  let p = random_problem 99L 10 in
  let unconstrained = Chain_dp.solve p in
  let k_opt = Schedule.checkpoint_count unconstrained.Chain_dp.schedule in
  (* At the unconstrained optimum's own k, the budget DP matches it. *)
  let at_k = Chain_dp.solve_with_budget p ~checkpoints:k_opt in
  close "budget DP at k* equals the optimum" unconstrained.Chain_dp.expected_makespan
    at_k.Chain_dp.expected_makespan;
  (* Every budget solution uses exactly its budget. *)
  for k = 1 to 10 do
    let solution = Chain_dp.solve_with_budget p ~checkpoints:k in
    Alcotest.(check int)
      (Printf.sprintf "uses exactly %d checkpoints" k)
      k
      (Schedule.checkpoint_count solution.Chain_dp.schedule);
    Alcotest.(check bool) "never beats the unconstrained optimum" true
      (solution.Chain_dp.expected_makespan
       >= unconstrained.Chain_dp.expected_makespan -. 1e-9)
  done;
  Alcotest.check_raises "budget bounds checked"
    (Invalid_argument "Chain_dp.solve_with_budget: need 1 <= checkpoints <= n") (fun () ->
      ignore (Chain_dp.solve_with_budget p ~checkpoints:11))

let test_budget_curve () =
  let p = random_problem 123L 8 in
  let curve = Chain_dp.budget_curve p in
  Alcotest.(check int) "one entry per k" 8 (List.length curve);
  let unconstrained = (Chain_dp.solve p).Chain_dp.expected_makespan in
  let minimum = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity curve in
  close "curve minimum is the unconstrained optimum" unconstrained minimum;
  (* Each curve point matches the dedicated solver. *)
  List.iter
    (fun (k, v) ->
      close
        (Printf.sprintf "curve at k=%d" k)
        (Chain_dp.solve_with_budget p ~checkpoints:k).Chain_dp.expected_makespan v)
    curve

let qcheck_budget_matches_filtered_brute_force =
  QCheck.Test.make ~name:"budget DP equals brute force restricted to k checkpoints"
    ~count:30
    QCheck.(pair (int_range 2 8) (int_range 0 1000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 60_000)) n in
      let all = Brute_force.chain_all p in
      List.for_all
        (fun k ->
          let best_k =
            List.fold_left
              (fun acc (schedule, cost) ->
                if Schedule.checkpoint_count schedule = k then Float.min acc cost else acc)
              infinity all
          in
          let dp_k = (Chain_dp.solve_with_budget p ~checkpoints:k).Chain_dp.expected_makespan in
          Float.abs (dp_k -. best_k) <= 1e-9 *. best_k)
        (List.init n (fun i -> i + 1)))

let qcheck_dp_optimal =
  QCheck.Test.make ~name:"DP equals exhaustive optimum on random chains" ~count:60
    QCheck.(pair (int_range 1 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 424_242)) n in
      let dp = Chain_dp.solve p in
      let bf = Brute_force.chain_best p in
      Float.abs (dp.Chain_dp.expected_makespan -. bf.Chain_dp.expected_makespan)
      <= 1e-9 *. bf.Chain_dp.expected_makespan)

let qcheck_dp_below_heuristics =
  QCheck.Test.make ~name:"DP never worse than standard placements" ~count:100
    QCheck.(pair (int_range 1 40) (int_range 0 10_000))
    (fun (n, seed) ->
      let p = random_problem (Int64.of_int (seed + 777)) n in
      let dp = (Chain_dp.solve p).Chain_dp.expected_makespan in
      let heuristics =
        [ Schedule.checkpoint_all p; Schedule.checkpoint_none p; Schedule.every_k p 3;
          Schedule.young p; Schedule.daly p ]
      in
      List.for_all
        (fun s -> dp <= Schedule.expected_makespan s +. 1e-9)
        heuristics)

let qcheck_schedule_segments_cover =
  QCheck.Test.make ~name:"segments partition the chain" ~count:200
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n, mask) ->
      let p =
        Chain_problem.uniform ~lambda:0.05 ~checkpoint:0.5 ~recovery:0.5
          (List.init n (fun i -> 1.0 +. float_of_int i))
      in
      let placement = Array.init n (fun i -> i = n - 1 || (mask lsr i) land 1 = 1) in
      let s = Schedule.make p placement in
      let segments = Schedule.segments s in
      let covered = List.concat_map (fun (a, b) -> List.init (b - a + 1) (fun k -> a + k)) segments in
      covered = List.init n Fun.id)

let suite =
  [
    Alcotest.test_case "problem construction" `Quick test_problem_construction;
    Alcotest.test_case "of_dag requires a chain" `Quick test_of_dag_requires_chain;
    Alcotest.test_case "segment expectation = Prop 1" `Quick
      test_segment_expected_matches_formula;
    Alcotest.test_case "with_lambda" `Quick test_with_lambda;
    Alcotest.test_case "make renumbers task ids" `Quick test_make_renumbers;
    Alcotest.test_case "schedule constructors" `Quick test_schedule_constructors;
    Alcotest.test_case "schedule segments" `Quick test_schedule_segments_partition;
    Alcotest.test_case "work-threshold placement" `Quick test_by_work_threshold;
    Alcotest.test_case "makespan is the segment sum" `Quick test_expected_makespan_is_sum;
    Alcotest.test_case "conversion to simulator segments" `Quick test_to_sim_segments;
    Alcotest.test_case "schedule rendering" `Quick test_to_string;
    Alcotest.test_case "DP on a single task" `Quick test_dp_single_task;
    Alcotest.test_case "DP = brute force (fixed)" `Quick test_dp_matches_brute_force_fixed;
    Alcotest.test_case "memoized = iterative" `Quick test_memoized_matches_iterative;
    Alcotest.test_case "divide-and-conquer = iterative" `Quick test_dc_matches_solve;
    Alcotest.test_case "divide-and-conquer at extreme rates" `Quick
      test_dc_extreme_rates;
    Alcotest.test_case "divide-and-conquer fallback" `Quick
      test_dc_fallback_on_nonmonotone;
    Alcotest.test_case "SMAWK = iterative DP" `Quick test_smawk_matches_solve;
    Alcotest.test_case "SMAWK ties and block sizes" `Quick test_smawk_ties_and_blocks;
    Alcotest.test_case "SMAWK fallback" `Quick test_smawk_fallback_on_nonmonotone;
    Alcotest.test_case "parallel sweep = iterative DP" `Quick
      test_solve_par_matches_solve;
    Alcotest.test_case "DP at extreme failure rates" `Quick test_dp_extreme_rates;
    Alcotest.test_case "DP value table" `Quick test_dp_values_structure;
    Alcotest.test_case "first segment end (numTask)" `Quick test_first_segment_end;
    Alcotest.test_case "SMAWK at scale (100k tasks)" `Slow test_smawk_scales;
    Alcotest.test_case "SMAWK allocation-free at 100k tasks" `Quick
      test_smawk_allocation_free;
    Alcotest.test_case "budget-constrained DP" `Quick test_budget_dp;
    Alcotest.test_case "budget curve" `Quick test_budget_curve;
    QCheck_alcotest.to_alcotest qcheck_budget_matches_filtered_brute_force;
    QCheck_alcotest.to_alcotest qcheck_dp_optimal;
    QCheck_alcotest.to_alcotest qcheck_dc_matches_solve;
    QCheck_alcotest.to_alcotest qcheck_smawk_agreement;
    QCheck_alcotest.to_alcotest qcheck_dp_below_heuristics;
    QCheck_alcotest.to_alcotest qcheck_schedule_segments_cover;
  ]
