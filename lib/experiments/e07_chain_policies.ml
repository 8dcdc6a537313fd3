module Table = Ckpt_stats.Table
module Generate = Ckpt_dag.Generate
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Monte_carlo = Ckpt_sim.Monte_carlo

let name = "E7"
let claim = "optimal placement vs standard policies on a 50-task chain"

let run config =
  let rng = Common.rng config "e7-chain" in
  let spec = Generate.uniform_costs ~work:(2.0, 8.0) ~checkpoint:(0.3, 1.2)
      ~recovery:(0.3, 1.2) ()
  in
  let dag = Generate.chain rng spec ~n:50 in
  let base = Chain_problem.of_dag ~downtime:0.5 ~initial_recovery:0.5 ~lambda:0.01 dag in
  let table =
    Table.create
      ~title:(Printf.sprintf "%s: %s (ratios to DP optimum)" name claim)
      ~columns:
        [
          ("lambda", Table.Right); ("MTBF/W_total", Table.Right); ("E_opt (DP)", Table.Right);
          ("#ckpts", Table.Right); ("all/opt", Table.Right); ("none/opt", Table.Right);
          ("Young/opt", Table.Right); ("Daly/opt", Table.Right); ("every5/opt", Table.Right);
        ]
  in
  let lambdas = [ 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 1e-1 ] in
  List.iter
    (fun lambda ->
      let problem = Chain_problem.with_lambda base lambda in
      let dp = Chain_dp.plan problem in
      let opt = dp.Chain_dp.expected_makespan in
      let ratio schedule = Schedule.expected_makespan schedule /. opt in
      Table.add_row table
        [
          Table.cell_f lambda;
          Table.cell_f (1.0 /. lambda /. Chain_problem.total_work problem);
          Table.cell_f opt;
          string_of_int (Schedule.checkpoint_count dp.Chain_dp.schedule);
          Table.cell_f (ratio (Schedule.checkpoint_all problem));
          Table.cell_f (ratio (Schedule.checkpoint_none problem));
          Table.cell_f (ratio (Schedule.young problem));
          Table.cell_f (ratio (Schedule.daly problem));
          Table.cell_f (ratio (Schedule.every_k problem 5));
        ])
    lambdas;
  (* Simulation cross-check at one interesting rate. *)
  let lambda = 1e-2 in
  let problem = Chain_problem.with_lambda base lambda in
  let runs = Common.runs config ~full:20_000 in
  let check =
    Table.create
      ~title:(Printf.sprintf "%s (cont.): simulation cross-check at lambda=%g (%d runs)"
                name lambda runs)
      ~columns:[ ("policy", Table.Left); ("analytic E", Table.Right);
                 ("simulated", Table.Right); ("analytic in 99% CI", Table.Left) ]
  in
  List.iter
    (fun (label, schedule) ->
      let analytic = Schedule.expected_makespan schedule in
      let estimate =
        Monte_carlo.estimate_segments ?domains:config.Common.domains
          ?target_ci:config.Common.target_ci
          ~model:(Monte_carlo.Poisson_rate lambda)
          ~downtime:0.5
          ~runs
          ~rng:(Common.rng config ("e7-sim-" ^ label))
          (Schedule.to_sim_segments schedule)
      in
      Table.add_row check
        [
          label; Table.cell_f analytic; Table.cell_f estimate.Monte_carlo.mean;
          Common.bool_cell (Monte_carlo.contains estimate.Monte_carlo.ci99 analytic);
        ])
    [
      ("DP optimum", (Chain_dp.plan problem).Chain_dp.schedule);
      ("checkpoint-all", Schedule.checkpoint_all problem);
      ("checkpoint-none", Schedule.checkpoint_none problem);
      ("Young", Schedule.young problem);
    ];
  [ Common.Table table; Common.Table check ]
