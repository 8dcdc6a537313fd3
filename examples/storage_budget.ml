(* Scheduling under a checkpoint budget.

   Checkpoints are not free for the platform either: each one occupies a
   slot in the burst buffer / stable store, and operators often cap how
   many a job may take. The budget-constrained DP answers "what is the
   best I can do with exactly k checkpoints?" — and the budget curve
   shows how quickly the penalty decays, so a user can negotiate the
   smallest acceptable quota. We close with the group-replication
   alternative for the same workload.

     dune exec examples/storage_budget.exe
*)

module Table = Ckpt_stats.Table
module Rng = Ckpt_prng.Rng
module Generate = Ckpt_dag.Generate
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Moldable = Ckpt_core.Moldable
module Replication = Ckpt_core.Replication

let () =
  let rng = Rng.create ~seed:7777L in
  let spec =
    Generate.uniform_costs ~work:(3.0, 12.0) ~checkpoint:(0.5, 2.0) ~recovery:(0.5, 2.5) ()
  in
  let dag = Generate.chain rng spec ~n:24 in
  let problem = Chain_problem.of_dag ~downtime:1.0 ~initial_recovery:1.0 ~lambda:0.02 dag in
  let unconstrained = Chain_dp.plan problem in
  Printf.printf "24-task chain, lambda = 0.02; unconstrained optimum: E = %.2f with %d checkpoints\n\n"
    unconstrained.Chain_dp.expected_makespan
    (Schedule.checkpoint_count unconstrained.Chain_dp.schedule);

  let table =
    Table.create ~title:"exact-k-checkpoints optimum (Chain_dp.solve_with_budget)"
      ~columns:[ ("budget k", Table.Right); ("E(T)", Table.Right); ("penalty", Table.Right) ]
  in
  List.iter
    (fun k ->
      let solution = Chain_dp.solve_with_budget problem ~checkpoints:k in
      Table.add_row table
        [
          string_of_int k;
          Table.cell_f solution.Chain_dp.expected_makespan;
          Table.cell_pct
            ((solution.Chain_dp.expected_makespan
              /. unconstrained.Chain_dp.expected_makespan)
            -. 1.0);
        ])
    [ 1; 2; 3; 4; 6; 8; 12; 24 ];
  Table.print table;

  (* The full curve as a figure. *)
  let curve = Chain_dp.budget_curve problem in
  print_newline ();
  print_string
    (Ckpt_stats.Ascii_plot.single ~height:12
       ~title:"E(T) vs checkpoint budget k (flat valley around the optimum)"
       (List.map (fun (k, v) -> (float_of_int k, v)) curve));

  (* Same total work, but spend processors instead of storage:
     group replication with a single end checkpoint per chunk. *)
  print_newline ();
  print_endline
    "Group replication treats the same load as a divisible perfectly-parallel\n\
     job on 4 processors, so compare across g (not with the rigid chain above):";
  let rep_table =
    Table.create ~title:"alternative: spend processors, not storage (group replication)"
      ~columns:[ ("groups", Table.Right); ("optimal chunks", Table.Right);
                 ("E(T)", Table.Right) ]
  in
  List.iter
    (fun groups ->
      let config =
        Replication.config ~downtime:1.0
          ~total_work:(Chain_problem.total_work problem)
          ~checkpoint:(Moldable.Constant 1.2) ~proc_rate:0.02 ~processors:4 ~groups ()
      in
      let chunks, expected = Replication.optimal_chunks config in
      Table.add_row rep_table
        [ string_of_int groups; string_of_int chunks; Table.cell_f expected ])
    [ 1; 2; 4 ];
  Table.print rep_table
