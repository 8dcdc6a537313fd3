(* Quickstart: the 60-second tour of the library.

   A five-task pipeline runs on a failure-prone platform. Where should
   it checkpoint? Run with:

     dune exec examples/quickstart.exe
*)

module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Monte_carlo = Ckpt_sim.Monte_carlo

let () =
  (* 1. Describe the workflow: five tasks, each with a computational
     weight w, a checkpoint cost C and a recovery cost R. *)
  let tasks =
    List.mapi
      (fun id (name, work, checkpoint_cost, recovery_cost) ->
        Task.make ~id ~name ~work ~checkpoint_cost ~recovery_cost ())
      [
        ("fetch", 5.0, 0.4, 0.6);
        ("decode", 12.0, 1.5, 1.8);
        ("transform", 30.0, 2.0, 2.5);
        ("analyze", 18.0, 0.8, 1.0);
        ("report", 3.0, 0.3, 0.4);
      ]
  in

  (* 2. Describe the platform: Exponential failures with MTBF 200
     (lambda = 0.005), one minute of downtime per failure. *)
  let problem = Chain_problem.make ~downtime:1.0 ~initial_recovery:0.5 ~lambda:0.005 tasks in

  (* 3. Ask Proposition 1 what a single monolithic run would cost. *)
  let monolithic = Schedule.checkpoint_none problem in
  Printf.printf "no intermediate checkpoint: E(T) = %.2f\n"
    (Schedule.expected_makespan monolithic);

  (* 4. Let Algorithm 1 (the O(n^2) dynamic program) place checkpoints
     optimally. *)
  let solution = Chain_dp.plan problem in
  Printf.printf "optimal placement:          E(T) = %.2f  %s\n"
    solution.Chain_dp.expected_makespan
    (Schedule.to_string solution.Chain_dp.schedule);

  (* 5. Validate by discrete-event simulation: the analytic expectation
     must land inside the Monte-Carlo confidence interval. *)
  let rng = Ckpt_prng.Rng.create ~seed:2024L in
  let estimate =
    Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate 0.005) ~downtime:1.0
      ~runs:20_000 ~rng
      (Schedule.to_sim_segments solution.Chain_dp.schedule)
  in
  Format.printf "simulated:                  E(T) = %a@." Monte_carlo.pp_estimate estimate;
  Printf.printf "closed form inside 99%% CI:  %b\n"
    (Monte_carlo.contains estimate.Monte_carlo.ci99 solution.Chain_dp.expected_makespan)
