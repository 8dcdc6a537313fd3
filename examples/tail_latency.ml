(* Checkpointing as tail-latency control.

   Proposition 1 is about the mean, but a deadline-driven user cares
   about the 99th percentile. This example collects full makespan
   distributions for three placements of the same 16-task chain and
   shows that optimal checkpointing compresses the tail far more than
   the mean: the no-checkpoint run occasionally restarts a huge segment
   over and over.

     dune exec examples/tail_latency.exe
*)

module Table = Ckpt_stats.Table
module Rng = Ckpt_prng.Rng
module Monte_carlo = Ckpt_sim.Monte_carlo
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Expected_time = Ckpt_core.Expected_time

let lambda = 0.02
let downtime = 1.0

let problem =
  Chain_problem.uniform ~downtime ~lambda ~checkpoint:0.8 ~recovery:1.0
    (List.init 16 (fun i -> 4.0 +. float_of_int (i mod 5)))

let () =
  let runs = 40_000 in
  let rng = Rng.create ~seed:90125L in
  let schedules =
    [
      ("optimal (DP)", (Chain_dp.plan problem).Chain_dp.schedule);
      ("checkpoint-all", Schedule.checkpoint_all problem);
      ("checkpoint-none", Schedule.checkpoint_none problem);
    ]
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "makespan distribution, 16-task chain, lambda=%g (%d runs)" lambda
           runs)
      ~columns:[ ("placement", Table.Left); ("mean", Table.Right); ("median", Table.Right);
                 ("p95", Table.Right); ("p99", Table.Right); ("p99.9", Table.Right);
                 ("max", Table.Right) ]
  in
  List.iter
    (fun (label, schedule) ->
      let d =
        Monte_carlo.collect_segments ~model:(Monte_carlo.Poisson_rate lambda) ~downtime
          ~runs
          ~rng:(Rng.substream rng label)
          (Schedule.to_sim_segments schedule)
      in
      Table.add_row table
        [
          label;
          Table.cell_f d.Monte_carlo.estimate.Monte_carlo.mean;
          Table.cell_f (Monte_carlo.quantile d 0.5);
          Table.cell_f (Monte_carlo.quantile d 0.95);
          Table.cell_f (Monte_carlo.quantile d 0.99);
          Table.cell_f (Monte_carlo.quantile d 0.999);
          Table.cell_f d.Monte_carlo.estimate.Monte_carlo.max;
        ])
    schedules;
  Table.print table;

  (* The analytic variance (the library's closed-form extension of
     Proposition 1) explains the single-segment tail. *)
  let p =
    Expected_time.make ~downtime ~recovery:1.0
      ~work:(Chain_problem.total_work problem)
      ~checkpoint:0.8 ~lambda ()
  in
  Printf.printf
    "\nclosed-form mean/stddev of the monolithic run: %.1f / %.1f\n"
    (Expected_time.expected p) (Expected_time.stddev p);
  print_endline
    "Checkpointing cuts the standard deviation roughly with the number of\n\
     independent segments — the p99.9 column shows what that buys a deadline."
