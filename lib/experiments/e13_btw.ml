module Table = Ckpt_stats.Table
module Law = Ckpt_dist.Law
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Btw = Ckpt_core.Btw

let name = "E13"
let claim = "saved-work objective (BTW [20]) vs expected-makespan objective"

(* A 12-task integer chain (the BTW DP requires integer durations). *)
let works = [ 4; 7; 2; 9; 5; 3; 8; 6; 2; 7; 4; 5 ]

let problem mean =
  (* The makespan objective needs a rate; use the law's mean. *)
  Chain_problem.uniform ~lambda:(1.0 /. mean) ~checkpoint:1.0 ~recovery:1.0
    (List.map float_of_int works)

let laws mean =
  [
    ("Exponential", Law.exponential ~rate:(1.0 /. mean));
    ("Uniform(0,2mu)", Law.uniform ~lo:0.0 ~hi:(2.0 *. mean));
    ("Weibull k=0.7", Law.weibull_of_mean ~shape:0.7 ~mean);
    ("LogNormal s=1.0", Law.log_normal_of_mean ~sigma:1.0 ~mean);
  ]

let run _config =
  let mean = 40.0 in
  let problem = problem mean in
  let makespan_schedule = (Chain_dp.plan problem).Chain_dp.schedule in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%s: %s (12 tasks, total work %g, failure mean %g; cells: expected saved work)"
           name claim (Chain_problem.total_work problem) mean)
      ~columns:
        [
          ("law", Table.Left); ("BTW optimum", Table.Right);
          ("BTW DP = exhaustive", Table.Left); ("greedy/opt", Table.Right);
          ("makespan-DP placement/opt", Table.Right); ("ckpts BTW vs makespan", Table.Left);
        ]
  in
  List.iter
    (fun (label, law) ->
      let exhaustive_schedule, exhaustive = Btw.exhaustive_best ~law problem in
      let _, pseudo = Btw.pseudo_polynomial_best ~law problem in
      let _, greedy = Btw.greedy ~law problem in
      let makespan_value = Btw.expected_saved_work ~law makespan_schedule in
      Table.add_row table
        [
          label; Table.cell_f exhaustive;
          Common.bool_cell (Float.abs (exhaustive -. pseudo) <= 1e-9 *. exhaustive);
          Table.cell_f (greedy /. exhaustive);
          Table.cell_f (makespan_value /. exhaustive);
          Printf.sprintf "%d vs %d"
            (Schedule.checkpoint_count exhaustive_schedule)
            (Schedule.checkpoint_count makespan_schedule);
        ])
    (laws mean);
  [ Common.Table table ]
