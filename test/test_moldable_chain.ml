(* Tests for moldable-task chains (Section 6, second extension). *)

module Moldable = Ckpt_core.Moldable
module Moldable_chain = Ckpt_core.Moldable_chain
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let mk ?(workload = Moldable.Perfectly_parallel) ?(volume = Moldable.Constant 5.0) work =
  Moldable_chain.task ~workload ~total_work:work ~checkpoint:volume ()

let sample_problem ?candidates () =
  Moldable_chain.problem ?candidates ~downtime:1.0 ~initial_recovery:2.0
    ~max_processors:256 ~proc_rate:1e-5
    [ mk 4000.0; mk 12000.0; mk ~workload:(Moldable.Amdahl 0.01) 8000.0;
      mk ~volume:(Moldable.Proportional 40.0) 6000.0 ]

let test_validation () =
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Moldable_chain.problem: empty chain") (fun () ->
      ignore (Moldable_chain.problem ~max_processors:4 ~proc_rate:1e-4 []));
  Alcotest.check_raises "bad candidate"
    (Invalid_argument "Moldable_chain.problem: candidate out of range") (fun () ->
      ignore
        (Moldable_chain.problem ~candidates:[ 8 ] ~max_processors:4 ~proc_rate:1e-4
           [ mk 10.0 ]));
  (* The recovery model goes through the same range checks as
     Moldable.scenario's checkpoint model. *)
  Alcotest.check_raises "negative recovery volume"
    (Invalid_argument "Moldable_chain.task: checkpoint volume must be positive") (fun () ->
      ignore
        (Moldable_chain.task ~recovery:(Moldable.Constant (-5.0)) ~total_work:10.0
           ~checkpoint:(Moldable.Constant 5.0) ()))

let test_candidates_default () =
  let p = sample_problem () in
  Alcotest.(check (list int)) "powers of two up to P"
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
    p.Moldable_chain.candidates;
  (* Doubling past 2^61 used to wrap to min_int, then 0, and the list
     grew without end. *)
  let p = Moldable_chain.problem ~max_processors:max_int ~proc_rate:1e-5 [ mk 10.0 ] in
  Alcotest.(check (list int)) "powers of two up to max_int, then max_int"
    (List.init 62 (fun i -> 1 lsl i) @ [ max_int ])
    p.Moldable_chain.candidates;
  List.iter
    (fun max_processors ->
      let p = Moldable_chain.problem ~max_processors ~proc_rate:1e-5 [ mk 10.0 ] in
      Alcotest.(check (list int))
        (Printf.sprintf "max_processors = %d" max_processors)
        (List.sort_uniq compare
           (max_processors
           :: List.filter (fun c -> c <= max_processors) (List.init 62 (fun i -> 1 lsl i))))
        p.Moldable_chain.candidates)
    [ 1; 2; 3; 5; 1 lsl 60; (1 lsl 61) + 1 ]

let test_single_allocation_equals_chain_dp () =
  (* Restricting to one candidate must reproduce the rigid-chain DP. *)
  let p = sample_problem ~candidates:[ 64 ] () in
  let moldable = Moldable_chain.solve p in
  let rigid = Moldable_chain.solve_fixed_allocation p ~processors:64 in
  close "moldable DP = rigid DP at a forced allocation"
    rigid.Chain_dp.expected_makespan moldable.Moldable_chain.expected_makespan;
  (* And all segments use the only allowed allocation. *)
  List.iter
    (fun (_, _, procs) -> Alcotest.(check int) "allocation" 64 procs)
    moldable.Moldable_chain.segments

let test_adaptive_beats_fixed () =
  let p = sample_problem () in
  let moldable = Moldable_chain.solve p in
  let best_p, fixed = Moldable_chain.best_fixed_allocation p in
  Alcotest.(check bool)
    (Printf.sprintf
       "adaptive %.1f <= best fixed %.1f (at p=%d)"
       moldable.Moldable_chain.expected_makespan fixed.Chain_dp.expected_makespan best_p)
    true
    (moldable.Moldable_chain.expected_makespan
     <= fixed.Chain_dp.expected_makespan +. 1e-9)

let test_segments_partition_chain () =
  let p = sample_problem () in
  let moldable = Moldable_chain.solve p in
  let covered =
    List.concat_map
      (fun (first, last, _) -> List.init (last - first + 1) (fun k -> first + k))
      moldable.Moldable_chain.segments
  in
  Alcotest.(check (list int)) "segments cover the chain in order" [ 0; 1; 2; 3 ] covered

let test_amdahl_task_prefers_fewer_processors () =
  (* A strongly sequential task should not be allocated the whole
     machine when failures are the dominant cost: check the DP uses a
     smaller allocation for it than for the perfectly parallel task. *)
  let p =
    Moldable_chain.problem ~downtime:1.0 ~max_processors:1024 ~proc_rate:1e-4
      [ mk 50_000.0; mk ~workload:(Moldable.Amdahl 0.2) 50_000.0 ]
  in
  let solution = Moldable_chain.solve p in
  match solution.Moldable_chain.segments with
  | [ (0, 0, p_parallel); (1, 1, p_sequential) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "parallel task gets %d >= sequential task's %d" p_parallel
           p_sequential)
        true
        (p_parallel >= p_sequential)
  | segments ->
      (* The DP may merge them; in that case just check feasibility. *)
      Alcotest.(check bool) "segments non-empty" true (segments <> [])

let test_chain_at_structure () =
  let p = sample_problem () in
  let chain = Moldable_chain.chain_at p ~processors:16 in
  Alcotest.(check int) "chain size" 4 (Ckpt_core.Chain_problem.size chain);
  close "lambda scales" (16.0 *. 1e-5) chain.Ckpt_core.Chain_problem.lambda;
  (* Work of task 0 at p=16: 4000/16. *)
  close "work scaled" 250.0 chain.Ckpt_core.Chain_problem.tasks.(0).Ckpt_dag.Task.work

let qcheck_moldable_at_least_as_good_as_every_fixed =
  QCheck.Test.make ~name:"adaptive allocation dominates every fixed allocation" ~count:25
    QCheck.(pair (list_of_size (Gen.int_range 1 5) (float_range 1000.0 20000.0))
              (int_range 0 1000))
    (fun (works, salt) ->
      let tasks =
        List.mapi
          (fun i w ->
            let workload =
              match (i + salt) mod 3 with
              | 0 -> Moldable.Perfectly_parallel
              | 1 -> Moldable.Amdahl 0.02
              | _ -> Moldable.Numerical_kernel 0.1
            in
            mk ~workload w)
          works
      in
      let p =
        Moldable_chain.problem ~downtime:0.5 ~max_processors:64 ~proc_rate:5e-5 tasks
      in
      let adaptive = (Moldable_chain.solve p).Moldable_chain.expected_makespan in
      List.for_all
        (fun procs ->
          adaptive
          <= (Moldable_chain.solve_fixed_allocation p ~processors:procs)
               .Chain_dp.expected_makespan
             +. 1e-9)
        p.Moldable_chain.candidates)

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "default candidates" `Quick test_candidates_default;
    Alcotest.test_case "single allocation = chain DP" `Quick
      test_single_allocation_equals_chain_dp;
    Alcotest.test_case "adaptive beats fixed" `Quick test_adaptive_beats_fixed;
    Alcotest.test_case "segments partition" `Quick test_segments_partition_chain;
    Alcotest.test_case "amdahl prefers fewer processors" `Quick
      test_amdahl_task_prefers_fewer_processors;
    Alcotest.test_case "chain_at structure" `Quick test_chain_at_structure;
    QCheck_alcotest.to_alcotest qcheck_moldable_at_least_as_good_as_every_fixed;
  ]
