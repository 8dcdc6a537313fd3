module Table = Ckpt_stats.Table
module Law = Ckpt_dist.Law
module Task = Ckpt_dag.Task
module Platform = Ckpt_failures.Platform
module Monte_carlo = Ckpt_sim.Monte_carlo
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Rejuvenation = Ckpt_core.Rejuvenation
module Nonmemoryless = Ckpt_core.Nonmemoryless

let name = "E17"
let claim = "the rejuvenation assumption ([12]): predicted vs real expectations"

(* A 20-task chain on a single-processor platform (so the per-processor
   law IS the platform law): node mean 60 against ~50 units of work. *)
let tasks () =
  Array.init 20 (fun i ->
      Task.make ~id:i
        ~work:(2.0 +. float_of_int (i mod 3))
        ~checkpoint_cost:0.4 ~recovery_cost:0.5 ())

let downtime = 0.5
let initial_recovery = 0.5
let mean = 60.0

let laws =
  [
    ("Exponential", Law.exponential ~rate:(1.0 /. mean));
    ("Weibull k=0.9", Law.weibull_of_mean ~shape:0.9 ~mean);
    ("Weibull k=0.7", Law.weibull_of_mean ~shape:0.7 ~mean);
    ("Weibull k=0.5", Law.weibull_of_mean ~shape:0.5 ~mean);
  ]

let run config =
  let runs = Common.runs config ~full:20_000 in
  let tasks = tasks () in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%s: %s (20-task chain, node mean %g, D=%g, %d runs)" name claim mean downtime
           runs)
      ~columns:
        [
          ("law", Table.Left); ("#ckpts (assumed opt)", Table.Right);
          ("predicted E", Table.Right); ("simulated E (no rejuv.)", Table.Right);
          ("prediction bias", Table.Right); ("exp-DP placement, simulated", Table.Right);
        ]
  in
  List.iter
    (fun (label, law) ->
      (* Placement "optimal" under the rejuvenation assumption. *)
      let assumed = Rejuvenation.solve ~law ~downtime ~initial_recovery tasks in
      (* The memoryless baseline placement (lambda = 1/mean). *)
      let problem =
        Chain_problem.make ~downtime ~initial_recovery ~lambda:(1.0 /. mean)
          (Array.to_list tasks)
      in
      let exp_schedule = (Chain_dp.plan problem).Chain_dp.schedule in
      let platform = Platform.make ~downtime ~processors:1 ~proc_law:law () in
      let simulate placement label_suffix =
        let schedule = Schedule.make problem placement in
        (Monte_carlo.estimate_chain_policy ?domains:config.Common.domains
           ?target_ci:config.Common.target_ci
           ~model:(Monte_carlo.Platform platform)
           ~downtime ~initial_recovery ~runs
           ~rng:(Common.rng config (Printf.sprintf "e17-%s-%s" label label_suffix))
           ~decide:(Nonmemoryless.static schedule) tasks)
          .Monte_carlo.mean
      in
      let simulated = simulate assumed.Rejuvenation.placement "assumed" in
      let exp_simulated =
        simulate
          (Array.init (Array.length tasks) (fun i ->
               List.mem i (Schedule.checkpoint_indices exp_schedule)))
          "exp"
      in
      let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
          assumed.Rejuvenation.placement
      in
      Table.add_row table
        [
          label; string_of_int count;
          Table.cell_f assumed.Rejuvenation.expected_makespan;
          Table.cell_f simulated;
          Table.cell_pct ((assumed.Rejuvenation.expected_makespan /. simulated) -. 1.0);
          Table.cell_f exp_simulated;
        ])
    laws;
  [ Common.Table table ]
