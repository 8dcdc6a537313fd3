(* CLI: a full checkpoint-scheduling analysis report for a chain spec —
   optimal placement, policy comparison, budget curve, waste breakdown,
   simulated tail quantiles, and a sample execution timeline. *)

open Cmdliner
module Chain_problem = Ckpt_core.Chain_problem
module Chain_spec = Ckpt_core.Chain_spec
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Expected_time = Ckpt_core.Expected_time
module Monte_carlo = Ckpt_sim.Monte_carlo
module Table = Ckpt_stats.Table

let section title =
  Printf.printf "\n== %s %s\n\n" title (String.make (Stdlib.max 0 (66 - String.length title)) '=')

let placement_section problem solution =
  section "Optimal placement (Algorithm 1)";
  Printf.printf "expected makespan: %.6f   (failure-free: %g)\n"
    solution.Chain_dp.expected_makespan
    (Chain_problem.total_work problem
    +. (let tasks = problem.Chain_problem.tasks in
        Array.fold_left
          (fun acc i -> acc +. i.Ckpt_dag.Task.checkpoint_cost)
          0.0
          (Array.of_list
             (List.map (fun i -> tasks.(i))
                (Schedule.checkpoint_indices solution.Chain_dp.schedule)))));
  Printf.printf "schedule: %s\n" (Schedule.to_string solution.Chain_dp.schedule)

let policy_section problem solution =
  section "Policy comparison (exact expectations)";
  let t =
    Table.create ~title:"placements"
      ~columns:[ ("policy", Table.Left); ("E(T)", Table.Right); ("vs optimal", Table.Right);
                 ("#ckpts", Table.Right) ]
  in
  List.iter
    (fun (label, schedule) ->
      let e = Schedule.expected_makespan schedule in
      Table.add_row t
        [ label; Table.cell_f e;
          Table.cell_f (e /. solution.Chain_dp.expected_makespan);
          string_of_int (Schedule.checkpoint_count schedule) ])
    [
      ("optimal (DP)", solution.Chain_dp.schedule);
      ("checkpoint-all", Schedule.checkpoint_all problem);
      ("checkpoint-none", Schedule.checkpoint_none problem);
      ("Young period", Schedule.young problem);
      ("Daly period", Schedule.daly problem);
    ];
  Table.print t

let budget_section problem =
  section "Checkpoint budget curve (exactly k checkpoints)";
  let t =
    Table.create ~title:"budget"
      ~columns:[ ("k", Table.Right); ("E(T)", Table.Right); ("penalty vs best k", Table.Right) ]
  in
  let curve = Chain_dp.budget_curve problem in
  let best = List.fold_left (fun acc (_, v) -> Float.min acc v) infinity curve in
  List.iter
    (fun (k, v) ->
      Table.add_row t
        [ string_of_int k; Table.cell_f v; Table.cell_pct ((v /. best) -. 1.0) ])
    curve;
  Table.print t

let waste_section problem solution =
  section "Waste decomposition of the optimal schedule";
  let totals = ref (0.0, 0.0, 0.0, 0.0) in
  List.iter
    (fun (first, last) ->
      let tasks = problem.Chain_problem.tasks in
      let params =
        Expected_time.make ~downtime:problem.Chain_problem.downtime
          ~recovery:(Chain_problem.recovery_before problem first)
          ~work:(Chain_problem.segment_work problem ~first ~last)
          ~checkpoint:tasks.(last).Ckpt_dag.Task.checkpoint_cost
          ~lambda:problem.Chain_problem.lambda ()
      in
      let b = Expected_time.breakdown params in
      let u, c, l, r = !totals in
      totals :=
        ( u +. b.Expected_time.useful, c +. b.Expected_time.checkpoint,
          l +. b.Expected_time.lost, r +. b.Expected_time.restore ))
    (Schedule.segments solution.Chain_dp.schedule);
  let useful, checkpoint, lost, restore = !totals in
  let total = useful +. checkpoint +. lost +. restore in
  Printf.printf "useful work     %10.3f  (%5.2f%%)\n" useful (100.0 *. useful /. total);
  Printf.printf "checkpointing   %10.3f  (%5.2f%%)\n" checkpoint
    (100.0 *. checkpoint /. total);
  Printf.printf "lost to failures%10.3f  (%5.2f%%)\n" lost (100.0 *. lost /. total);
  Printf.printf "restore/downtime%10.3f  (%5.2f%%)\n" restore (100.0 *. restore /. total)

let simulation_section problem solution runs seed =
  section (Printf.sprintf "Monte-Carlo validation (%d runs)" runs);
  let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int seed) in
  let d =
    Monte_carlo.collect_segments
      ~model:(Monte_carlo.Poisson_rate problem.Chain_problem.lambda)
      ~downtime:problem.Chain_problem.downtime ~runs ~rng
      (Schedule.to_sim_segments solution.Chain_dp.schedule)
  in
  Format.printf "simulated: %a@." Monte_carlo.pp_estimate d.Monte_carlo.estimate;
  Printf.printf "analytic %.6f inside the 99%% CI: %b\n" solution.Chain_dp.expected_makespan
    (Monte_carlo.contains d.Monte_carlo.estimate.Monte_carlo.ci99
       solution.Chain_dp.expected_makespan);
  Printf.printf "quantiles: p50 %.4g | p95 %.4g | p99 %.4g | p99.9 %.4g | max %.4g\n"
    (Monte_carlo.quantile d 0.5) (Monte_carlo.quantile d 0.95)
    (Monte_carlo.quantile d 0.99)
    (Monte_carlo.quantile d 0.999)
    d.Monte_carlo.estimate.Monte_carlo.max;
  section "Sample run timeline";
  let stream =
    Ckpt_failures.Failure_stream.poisson ~rate:problem.Chain_problem.lambda
      (Ckpt_prng.Rng.substream rng "timeline")
  in
  let _, events =
    Ckpt_sim.Sim_run.run_segments_traced ~downtime:problem.Chain_problem.downtime
      ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
      (Schedule.to_sim_segments solution.Chain_dp.schedule)
  in
  print_string (Ckpt_sim.Timeline.render events)

let run spec_path lambda_override runs seed =
  let problem =
    try Chain_spec.parse_file_with_lambda ?lambda:lambda_override spec_path
    with Chain_spec.Parse_error msg ->
      prerr_endline msg;
      exit 2
  in
  Printf.printf "checkpoint-workflows analysis report: %s\n" spec_path;
  Printf.printf "%d tasks, total work %g, lambda %g (MTBF %g), D %g, R0 %g\n"
    (Chain_problem.size problem) (Chain_problem.total_work problem)
    problem.Chain_problem.lambda
    (1.0 /. problem.Chain_problem.lambda)
    problem.Chain_problem.downtime problem.Chain_problem.initial_recovery;
  let solution = Chain_dp.plan problem in
  placement_section problem solution;
  policy_section problem solution;
  budget_section problem;
  waste_section problem solution;
  simulation_section problem solution runs seed

let spec_path =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"SPEC" ~doc:"Chain specification file.")

let lambda_override =
  Arg.(value & opt (some float) None
       & info [ "l"; "lambda" ] ~docv:"RATE" ~doc:"Override the platform failure rate.")

let runs =
  Arg.(value & opt int 20_000
       & info [ "n"; "runs" ] ~docv:"N" ~doc:"Monte-Carlo replications.")

let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let cmd =
  let doc = "full checkpoint-scheduling analysis report for a workflow chain" in
  let info = Cmd.info "ckpt-report" ~version:"1.0.0" ~doc in
  Cmd.v info Term.(const run $ spec_path $ lambda_override $ runs $ seed)

let () = exit (Cmd.eval cmd)
