module Table = Ckpt_stats.Table
module Law = Ckpt_dist.Law
module Platform = Ckpt_failures.Platform
module Monte_carlo = Ckpt_sim.Monte_carlo
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Nonmemoryless = Ckpt_core.Nonmemoryless

let name = "E10"
let claim = "non-memoryless failures: adaptive policies vs memoryless-optimal placement"

(* A 30-task chain, platform of 8 nodes, per-node MTBF 400 time units:
   platform MTBF 50 against a failure-free span of ~66, i.e. a couple of
   failures per run on average. *)
let processors = 8
let node_mtbf = 400.0
let downtime = 0.5

let laws =
  [
    ("Exponential", Law.exponential ~rate:(1.0 /. node_mtbf));
    ("Weibull k=0.7", Law.weibull_of_mean ~shape:0.7 ~mean:node_mtbf);
    ("Weibull k=0.5", Law.weibull_of_mean ~shape:0.5 ~mean:node_mtbf);
    ("LogNormal s=1.5", Law.log_normal_of_mean ~sigma:1.5 ~mean:node_mtbf);
  ]

let chain () =
  Chain_problem.uniform ~downtime
    ~lambda:(float_of_int processors /. node_mtbf)
    ~checkpoint:0.4 ~recovery:0.4
    (List.init 30 (fun i -> 1.5 +. (0.5 *. float_of_int (i mod 4))))

let run config =
  let runs = Common.runs config ~full:4000 in
  let problem = chain () in
  let dp_schedule = (Chain_dp.plan problem).Chain_dp.schedule in
  let policies law =
    [
      ("static DP (memoryless opt)", Nonmemoryless.static dp_schedule);
      ("checkpoint-all", Nonmemoryless.checkpoint_all);
      ("checkpoint-none", Nonmemoryless.checkpoint_none);
      ("hazard-Young", Nonmemoryless.hazard_young ~law ~processors ~mean_checkpoint:0.4);
      ("MRL-Young", Nonmemoryless.mrl_young ~law ~processors ~mean_checkpoint:0.4);
      ("risk-bound 0.5", Nonmemoryless.risk_bound ~law ~processors ~problem ~max_risk:0.5);
      ("hazard-DP", Nonmemoryless.hazard_dp ~law ~processors ~problem);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "%s: %s (30-task chain, %d nodes, node MTBF %g, %d runs)" name claim processors
           node_mtbf runs)
      ~columns:[ ("law", Table.Left); ("policy", Table.Left); ("mean makespan", Table.Right);
                 ("99% CI +/-", Table.Right); ("ratio to best", Table.Right) ]
  in
  List.iter
    (fun (law_label, law) ->
      let platform = Platform.make ~downtime ~processors ~proc_law:law () in
      let results =
        List.map
          (fun (label, policy) ->
            (* Each estimate is its own campaign: don't let one policy's
               cache hit rate bleed into the next row's metrics. *)
            Nonmemoryless.reset_cache_stats ();
            let estimate =
              Monte_carlo.estimate_chain_policy ?domains:config.Common.domains
                ?target_ci:config.Common.target_ci
                ~model:(Monte_carlo.Platform platform)
                ~downtime ~initial_recovery:problem.Chain_problem.initial_recovery ~runs
                ~rng:(Common.rng config (Printf.sprintf "e10-%s-%s" law_label label))
                ~decide:policy problem.Chain_problem.tasks
            in
            (label, estimate))
          (policies law)
      in
      let best =
        List.fold_left (fun acc (_, e) -> Float.min acc e.Monte_carlo.mean) infinity results
      in
      List.iter
        (fun (label, (e : Monte_carlo.estimate)) ->
          let lo, hi = e.Monte_carlo.ci99 in
          Table.add_row table
            [
              law_label; label; Table.cell_f e.Monte_carlo.mean;
              Table.cell_f ((hi -. lo) /. 2.0); Table.cell_f (e.Monte_carlo.mean /. best);
            ])
        results;
      if law_label <> fst (List.nth laws (List.length laws - 1)) then Table.add_rule table)
    laws;
  [ Common.Table table ]
