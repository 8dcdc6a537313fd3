(* Replaying checkpoint policies against a synthetic production-cluster
   log (the Section 6 extension: non-memoryless failures).

   We generate a 64-node cluster log with Weibull(k=0.7) node failures —
   the decreasing-hazard shape reported for real HPC failure logs — and
   replay a 40-task chain against independent samples of that log. The
   age-aware policies exploit the lull that follows each failure burst.

     dune exec examples/weibull_cluster.exe
*)

module Law = Ckpt_dist.Law
module Rng = Ckpt_prng.Rng
module Table = Ckpt_stats.Table
module Cluster_log = Ckpt_failures.Cluster_log
module Monte_carlo = Ckpt_sim.Monte_carlo
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Nonmemoryless = Ckpt_core.Nonmemoryless

let nodes = 64
let node_mtbf = 2000.0 (* hours *)
let downtime = 0.5
let law = Law.weibull_of_mean ~shape:0.7 ~mean:node_mtbf

let problem =
  (* 40 tasks of 2-5 hours each; memoryless model sees the platform rate. *)
  Chain_problem.uniform ~downtime
    ~lambda:(float_of_int nodes /. node_mtbf)
    ~checkpoint:0.3 ~recovery:0.35
    (List.init 40 (fun i -> 2.0 +. float_of_int (i mod 4)))

let () =
  let rng = Rng.create ~seed:20260705L in
  (* A multi-year archived log (the historical data a practitioner
     fits from), saved/reloaded to demonstrate the trace format... *)
  let archive = Cluster_log.generate ~heterogeneity:0.2 ~law ~nodes ~horizon:30_000.0 rng in
  let path = Filename.temp_file "weibull_cluster" ".log" in
  Cluster_log.save archive path;
  let reloaded = Cluster_log.load path in
  Sys.remove path;
  Printf.printf "archived log: %d nodes, %d failures (round-tripped through %s)\n"
    (Cluster_log.node_count reloaded)
    (Cluster_log.failure_count reloaded)
    (Filename.basename path);

  (* What a practitioner would do: fit a law to the log's per-node
     inter-arrival times, and hand the FITTED law to the policies. *)
  let gaps =
    Array.concat
      (List.filter_map
         (fun (node : Cluster_log.node) ->
           let times = node.Cluster_log.failure_times in
           if Array.length times < 2 then None
           else
             Some (Array.init (Array.length times - 1)
                     (fun i -> times.(i + 1) -. times.(i))))
         (Array.to_list reloaded.Cluster_log.nodes))
  in
  let fitted, _ = Ckpt_dist.Law_fit.best_fit gaps in
  Printf.printf "fitted per-node law from %d gaps: %s (true: %s)\n\n"
    (Array.length gaps)
    (Ckpt_dist.Law.to_string fitted)
    (Ckpt_dist.Law.to_string law);
  (* The replays come from the TRUE law (the real world); the policies
     only ever see the fitted one. *)
  let logs =
    List.init 400 (fun i ->
        let sample_rng = Rng.substream rng (Printf.sprintf "sample-%d" i) in
        Cluster_log.to_trace
          (Cluster_log.generate ~heterogeneity:0.2 ~law ~nodes ~horizon:1500.0 sample_rng))
  in
  let law = fitted in
  let static_schedule = (Chain_dp.plan problem).Chain_dp.schedule in
  let policies =
    [
      ("static DP (memoryless)", Nonmemoryless.static static_schedule);
      ("checkpoint-all", Nonmemoryless.checkpoint_all);
      ("checkpoint-none", Nonmemoryless.checkpoint_none);
      ("hazard-aware Young", Nonmemoryless.hazard_young ~law ~processors:nodes
                               ~mean_checkpoint:0.3);
      ("hazard-aware DP", Nonmemoryless.hazard_dp ~law ~processors:nodes ~problem);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "40-task chain on %d Weibull(k=0.7) nodes, %d log replays" nodes
           (List.length logs))
      ~columns:[ ("policy", Table.Left); ("mean makespan (h)", Table.Right);
                 ("99% CI +/-", Table.Right); ("vs best", Table.Right) ]
  in
  let results =
    List.map
      (fun (label, policy) ->
        let estimate =
          Monte_carlo.estimate_chain_policy_on_logs ~downtime
            ~initial_recovery:problem.Chain_problem.initial_recovery ~logs ~decide:policy
            problem.Chain_problem.tasks
        in
        (label, estimate))
      policies
  in
  let best =
    List.fold_left (fun acc (_, e) -> Float.min acc e.Monte_carlo.mean) infinity results
  in
  List.iter
    (fun (label, (e : Monte_carlo.estimate)) ->
      let lo, hi = e.Monte_carlo.ci99 in
      Table.add_row table
        [
          label; Table.cell_f e.Monte_carlo.mean; Table.cell_f ((hi -. lo) /. 2.0);
          Table.cell_f (e.Monte_carlo.mean /. best);
        ])
    results;
  Table.print table
