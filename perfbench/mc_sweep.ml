(* mc-sweep: the Monte Carlo policy comparison of the experiments. One
   seeded 400-task chain and a fixed list of candidate plans (the DP
   optimum, Young's and Daly's periods, and every k-th task for a fixed
   list of k) are each estimated by Monte_carlo.estimate_segments under
   Poisson failures, adaptively from a small first round, so every
   campaign doubles through several pool rounds. One sweep estimates
   every plan; the sweep is the timed operation.

   The timed sweeps run the pool on one domain. On two domains of a
   2-vCPU machine shared with other tenants, whole 30 s runs went 40-55%
   slower whenever either vCPU was contended, which no statistic of the
   window could hide (perfbench/NOTES.md). Two domains still run in the
   check that a campaign agrees bit for bit at 1 and 2 domains. *)

module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Monte_carlo = Ckpt_sim.Monte_carlo
module Sim_run = Ckpt_sim.Sim_run
module Failure_stream = Ckpt_failures.Failure_stream
module Clock = Ckpt_obs.Clock

let n = 400
let lambda = 5e-4
let downtime = 5.0
let domains = 1
let first_round = 64
(* The CI target is out of reach, so every campaign doubles from
   [first_round] to the [max_runs] cap: 9 pool rounds and the same
   number of runs for every seed, so the work of a sweep does not depend
   on where the seed's estimates happen to stop. *)
let target_ci = 1e-5
let max_runs = 1 lsl 14
let every_k = [ 1; 2; 4; 8; 16; 32 ]

let setups = 5
let min_sweeps = 3

let tasks ~seed =
  let rng = Rng.substream (Rng.create ~seed:(Int64.of_int seed)) "mc-sweep" in
  List.init n (fun i ->
      Task.make ~id:i ~work:(Rng.float_range rng 5.0 15.0)
        ~checkpoint_cost:(Rng.float_range rng 1.0 5.0)
        ~recovery_cost:(Rng.float_range rng 1.0 5.0) ())

type candidate = {
  name : string;
  schedule : Schedule.t;
  segments : Sim_run.segment list;
  run_seed : int64;  (** Campaign seed: every sweep estimates the same runs. *)
}

let problem tasks = Chain_problem.make ~downtime ~initial_recovery:3.0 ~lambda tasks

(* Set-up: solve the candidate plans. *)
let candidates ~seed tasks =
  let p = problem tasks in
  let optimum = (Chain_dp.solve_smawk p).Chain_dp.schedule in
  let plans =
    [ ("dp", optimum); ("young", Schedule.young p); ("daly", Schedule.daly p) ]
    @ List.map (fun k -> (Printf.sprintf "every-%d" k, Schedule.every_k p k)) every_k
  in
  List.mapi
    (fun i (name, schedule) ->
      { name; schedule; segments = Schedule.to_sim_segments schedule;
        run_seed = Int64.of_int ((seed * 64) + i) })
    plans

let estimate ?(domains = domains) c =
  Monte_carlo.estimate_segments ~domains ~target_ci ~max_runs ~model:(Monte_carlo.Poisson_rate lambda)
    ~downtime ~runs:first_round ~rng:(Rng.create ~seed:c.run_seed) c.segments

let sweep cands = List.map (fun c -> estimate c) cands

let setup ~seed tasks =
  Gc.full_major ();
  Clock.time (fun () ->
      let cands = candidates ~seed tasks in
      ignore (estimate (List.hd cands));
      cands)

let window ~seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc =
    if List.length acc >= min_sweeps && Clock.elapsed_s t0 >= seconds then List.rev acc
    else go (f () :: acc)
  in
  go []

let timed_sweep cands =
  Gc.full_major ();
  Clock.time (fun () -> sweep cands)

let check report cands estimates =
  let within =
    List.for_all2
      (fun c (e : Monte_carlo.estimate) ->
        let exact = Schedule.expected_makespan c.schedule in
        let z = Float.abs (e.mean -. exact) /. e.std_error in
        Report.note "  %-9s exact %12.4f  estimate %12.4f  runs %6d  |z| %.2f" c.name exact e.mean
          e.runs z;
        z <= 4.0)
      cands estimates
  in
  Report.check report "mc-sweep estimates within 4 standard errors of the exact expectation" within;
  Report.check report "mc-sweep every campaign ran to the run cap"
    (List.for_all (fun (e : Monte_carlo.estimate) -> e.runs = max_runs) estimates)

let same_estimate (a : Monte_carlo.estimate) (b : Monte_carlo.estimate) =
  Float.equal a.mean b.mean && Float.equal a.stddev b.stddev && a.runs = b.runs
  && Float.equal a.min b.min && Float.equal a.max b.max

(* Sequential replay of the sweep's runs outside the pool: the same
   plans, the same per-run substreams, one run after another. *)
type replay = { seconds : float; runs : int; words : float; queries : int; failures : int }

let replay cands (estimates : Monte_carlo.estimate list) =
  let queries = ref 0 and failures = ref 0 and runs = ref 0 in
  let w0 = Tracing.minor_words () in
  let seconds, () =
    Clock.time (fun () ->
        Tracing.root "mc-sweep.sequential" (fun () ->
            List.iter2
              (fun c (e : Monte_carlo.estimate) ->
                Tracing.layer "sim_run.run_segments" (fun () ->
                    let root = Rng.create ~seed:c.run_seed in
                    for r = 0 to e.runs - 1 do
                      let stream = Failure_stream.poisson ~rate:lambda (Rng.substream_run root r) in
                      let next_failure t =
                        incr queries;
                        Failure_stream.next_after stream t
                      in
                      let stats = Sim_run.run_segments_stats ~downtime ~next_failure c.segments in
                      failures := !failures + stats.Sim_run.failures
                    done;
                    runs := !runs + e.runs))
              cands estimates))
  in
  { seconds; runs = !runs; words = Tracing.minor_words () -. w0; queries = !queries; failures = !failures }

let run report ~seed ~seconds ~trace =
  let tasks = tasks ~seed in
  let setup = Array.init setups (fun _ -> setup ~seed tasks) in
  let cands = snd setup.(setups - 1) in
  let untraced_window = if trace then seconds /. 2.0 else seconds in
  let sweeps = window ~seconds:untraced_window (fun () -> timed_sweep cands) in
  let ops = List.length sweeps in
  Report.attempt ~n:(ops * List.length cands) report;
  let times = Array.of_list (List.map fst sweeps) in
  let p50 = Percentile.median_of times in
  let best = Array.fold_left Float.min Float.infinity times in
  Report.note "mc-sweep: %d tasks, %d candidate plans, %d timed sweeps" n (List.length cands) ops;
  (* The fastest sweep of the window, as for chain-1e6. *)
  Report.end_to_end report "op_time_ms" ~unit:"ms" (best *. 1e3);
  Report.end_to_end report "goodput_per_s" ~unit:"1/s" (1.0 /. best);
  Report.end_to_end report "setup_s" ~unit:"s" (Percentile.median_of (Array.map fst setup));
  Report.end_to_end report "peak_rss_mb" ~unit:"MiB" (Proc.peak_rss_mb None);
  Report.detail "mc_sweep_s" ~unit:"s" p50;
  Report.samples "sweep" ~unit:"s" times;
  Report.samples "set-up" ~unit:"s" (Array.map fst setup);
  let estimates = snd (List.hd sweeps) in
  let repeatable = List.for_all (fun (_, e) -> List.for_all2 same_estimate e estimates) sweeps in
  Report.check report "mc-sweep estimates agree sweep to sweep" repeatable;
  check report cands estimates;
  let dp = List.hd cands in
  Report.check report "mc-sweep campaign agrees bit for bit at 1 and 2 domains"
    (same_estimate (estimate ~domains:1 dp) (estimate ~domains:2 dp));
  if trace then begin
    let rounds0 = Tracing.counter "mc.adaptive_rounds" and runs0 = Tracing.counter "mc.runs" in
    let p = problem tasks in
    Tracing.start ();
    (* The solver layers the set-up calls, repeated to rise above the
       clock's resolution. *)
    let reps = 200 in
    let tr0 = Tracing.counter "dp.smawk_transitions" + Tracing.counter "dp.transitions" in
    let solve_words = ref 0.0 in
    Tracing.root "mc-sweep.plans" (fun () ->
        for _ = 1 to reps do
          ignore (Tracing.layer "chain_problem.make" (fun () -> problem tasks));
          let w0 = Tracing.minor_words () in
          ignore (Tracing.layer "chain_dp.solve_smawk" (fun () -> Chain_dp.solve_smawk p));
          solve_words := !solve_words +. (Tracing.minor_words () -. w0)
        done);
    let transitions = Tracing.counter "dp.smawk_transitions" + Tracing.counter "dp.transitions" - tr0 in
    let w0 = Tracing.minor_words () and major0 = Tracing.major_collections () in
    let traced_sweeps =
      window ~seconds:(seconds -. untraced_window) (fun () ->
          Gc.full_major ();
          Clock.time (fun () ->
              Tracing.root "mc-sweep.sweep" (fun () ->
                  List.map (fun c -> Tracing.layer "monte_carlo.estimate_segments" (fun () -> estimate c)) cands)))
    in
    let traced_ops = float_of_int (List.length traced_sweeps) in
    let words = (Tracing.minor_words () -. w0) /. traced_ops in
    let majors = float_of_int (Tracing.major_collections () - major0) /. traced_ops in
    let rounds = float_of_int (Tracing.counter "mc.adaptive_rounds" - rounds0) /. traced_ops in
    let pool_runs = float_of_int (Tracing.counter "mc.runs" - runs0) /. traced_ops in
    let seq = replay cands estimates in
    let records = Tracing.finish report ~workload:"mc-sweep" ~seed in
    Report.attempt ~n:(List.length traced_sweeps * List.length cands) report;
    Report.check report "mc-sweep traced sweeps agree with untraced ones"
      (List.for_all (fun (_, e) -> List.for_all2 same_estimate e estimates) traced_sweeps);
    let traced_times = Array.of_list (List.map fst traced_sweeps) in
    let traced_p50 = Percentile.median_of traced_times in
    let fruns = float_of_int seq.runs in
    let busy = seq.seconds in
    Report.detail "sim_run.us_per_run" ~unit:"us" (busy *. 1e6 /. fruns);
    Report.detail "sim_run.minor_words_per_run" ~unit:"words" (seq.words /. fruns);
    Report.detail "failure_stream.queries_per_run" ~unit:"count" (float_of_int seq.queries /. fruns);
    Report.detail "sim_run.failures_per_run" ~unit:"count" (float_of_int seq.failures /. fruns);
    Report.detail "parallel_exec.rounds" ~unit:"count" rounds;
    Report.detail "parallel_exec.runs" ~unit:"count" pool_runs;
    Report.detail "parallel_exec.round_overhead_ms" ~unit:"ms"
      ((traced_p50 -. (busy /. float_of_int domains)) *. 1e3 /. rounds);
    Report.detail "parallel_exec.efficiency" ~unit:"ratio" (busy /. (float_of_int domains *. traced_p50));
    Report.detail "tracing overhead on op_time_ms" ~unit:"ratio"
      (Array.fold_left Float.min Float.infinity traced_times /. best);
    let fn = float_of_int (n * reps) in
    Report.per_layer report "chain_problem.make_us_per_task" ~unit:"us"
      (Tracing.total_s records "chain_problem.make" *. 1e6 /. fn);
    Report.per_layer report "chain_dp.solve_us_per_task" ~unit:"us"
      (Tracing.total_s records "chain_dp.solve_smawk" *. 1e6 /. fn);
    Report.per_layer report "chain_dp.transitions_per_task" ~unit:"count" (float_of_int transitions /. fn);
    Report.per_layer report "chain_dp.minor_words_per_task" ~unit:"words" (!solve_words /. fn);
    Report.per_layer report "gc.minor_words_per_op" ~unit:"words" words;
    Report.per_layer report "gc.major_collections_per_op" ~unit:"count" majors
  end
