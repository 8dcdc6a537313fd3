(* A DataCutter-style seismic imaging pipeline (the linear-chain
   workflows that motivate Section 5 of the paper).

   Eight stages with very unequal weights and checkpoint volumes: the
   migration stage dominates the compute time, while the gather stages
   carry the large intermediate datasets (expensive to checkpoint). We
   sweep the platform failure rate and watch the optimal placement
   adapt, then cross-check one operating point by simulation.

     dune exec examples/seismic_pipeline.exe
*)

module Task = Ckpt_dag.Task
module Table = Ckpt_stats.Table
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Monte_carlo = Ckpt_sim.Monte_carlo

(* (stage, work in minutes, checkpoint cost, recovery cost) —
   checkpoint cost tracks the size of the stage's output volume. *)
let stages =
  [
    ("ingest-traces", 15.0, 4.0, 5.0);
    ("geometry-qc", 8.0, 0.5, 0.7);
    ("noise-filter", 45.0, 4.5, 5.5);
    ("sort-gathers", 30.0, 6.0, 7.0);
    ("velocity-model", 60.0, 1.0, 1.2);
    ("migration", 240.0, 2.5, 3.0);
    ("stack", 40.0, 1.5, 1.8);
    ("render-volume", 12.0, 0.8, 1.0);
  ]

let problem lambda =
  let tasks =
    List.mapi
      (fun id (name, work, checkpoint_cost, recovery_cost) ->
        Task.make ~id ~name ~work ~checkpoint_cost ~recovery_cost ())
      stages
  in
  Chain_problem.make ~downtime:2.0 ~initial_recovery:1.0 ~lambda tasks

let () =
  let table =
    Table.create ~title:"seismic pipeline: optimal placement vs platform MTBF"
      ~columns:
        [
          ("platform MTBF (min)", Table.Right); ("E_opt", Table.Right);
          ("overhead vs failure-free", Table.Right); ("checkpoints after", Table.Left);
        ]
  in
  let failure_free =
    List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0.0 stages
  in
  List.iter
    (fun mtbf ->
      let p = problem (1.0 /. mtbf) in
      let solution = Chain_dp.plan p in
      let names =
        List.map
          (fun i -> (let t = p.Chain_problem.tasks.(i) in t.Task.name))
          (Schedule.checkpoint_indices solution.Chain_dp.schedule)
      in
      Table.add_row table
        [
          Table.cell_f mtbf;
          Table.cell_f solution.Chain_dp.expected_makespan;
          Table.cell_pct ((solution.Chain_dp.expected_makespan /. failure_free) -. 1.0);
          String.concat ", " names;
        ])
    [ 100_000.0; 10_000.0; 3000.0; 1000.0; 300.0; 100.0 ];
  Table.print table;

  (* Cross-check the MTBF = 1000 operating point by simulation, also
     showing what the naive policies would cost. *)
  let p = problem 1e-3 in
  let rng = Ckpt_prng.Rng.create ~seed:7L in
  let check =
    Table.create ~title:"MTBF = 1000 min: analytic vs simulated (20k runs)"
      ~columns:[ ("policy", Table.Left); ("analytic", Table.Right); ("simulated", Table.Right);
                 ("in 99% CI", Table.Left) ]
  in
  List.iter
    (fun (label, schedule) ->
      let analytic = Schedule.expected_makespan schedule in
      let estimate =
        Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate 1e-3) ~downtime:2.0
          ~runs:20_000
          ~rng:(Ckpt_prng.Rng.substream rng label)
          (Schedule.to_sim_segments schedule)
      in
      Table.add_row check
        [
          label; Table.cell_f analytic; Table.cell_f estimate.Monte_carlo.mean;
          (if Monte_carlo.contains estimate.Monte_carlo.ci99 analytic then "yes" else "NO");
        ])
    [
      ("optimal (DP)", (Chain_dp.plan p).Chain_dp.schedule);
      ("checkpoint-all", Schedule.checkpoint_all p);
      ("checkpoint-none", Schedule.checkpoint_none p);
      ("Daly period", Schedule.daly p);
    ];
  Table.print check
