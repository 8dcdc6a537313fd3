module Rng = Ckpt_prng.Rng
module Welford = Ckpt_stats.Welford
module Failure_stream = Ckpt_failures.Failure_stream
module Trace = Ckpt_failures.Trace
module Span = Ckpt_obs.Span

type estimate = {
  mean : float;
  stddev : float;
  std_error : float;
  runs : int;
  ci99 : float * float;
  min : float;
  max : float;
}

let contains (lo, hi) x = lo <= x && x <= hi

let pp_estimate fmt e =
  let lo, hi = e.ci99 in
  Format.fprintf fmt "%.6g ± %.2g (99%% CI [%.6g, %.6g], n=%d)" e.mean
    (2.576 *. e.std_error) lo hi e.runs

type failure_model =
  | Poisson_rate of float
  | Platform of Ckpt_failures.Platform.t
  | Platform_rejuvenating of Ckpt_failures.Platform.t

let stream_of_model model rng =
  match model with
  | Poisson_rate rate -> Failure_stream.poisson ~rate rng
  | Platform platform -> Failure_stream.of_platform platform rng
  | Platform_rejuvenating platform ->
      Failure_stream.of_platform ~rejuvenation:Failure_stream.All_processors platform rng

let estimate_of_welford acc =
  {
    mean = Welford.mean acc;
    stddev = Welford.stddev acc;
    std_error = Welford.std_error acc;
    runs = Welford.count acc;
    ci99 = Welford.confidence_interval acc ~level:0.99;
    min = Welford.min acc;
    max = Welford.max acc;
  }

(* All estimators funnel here: fixed-runs or adaptive campaigns, both
   executed by the deterministic domain pool. [runs] is the campaign
   size (fixed mode) or the initial round (adaptive mode). *)
let replicate ?domains ?target_ci ?max_runs ~runs ~rng sampler =
  if runs <= 0 then invalid_arg "Monte_carlo: runs must be positive";
  let seed = Rng.seed_of rng in
  let acc =
    Span.with_ ~name:"mc.campaign"
      ~args:
        [ ("runs", string_of_int runs);
          ("adaptive", match target_ci with Some _ -> "true" | None -> "false") ]
      (fun () ->
        match target_ci with
        | None -> Parallel_exec.estimate ?domains ~runs ~seed sampler
        | Some target_ci ->
            let max_runs = match max_runs with Some m -> m | None -> runs * 64 in
            Parallel_exec.estimate_adaptive ?domains ~runs ~max_runs ~target_ci ~seed
              sampler)
  in
  estimate_of_welford acc

(* Segment campaigns compile their plan once and run it on the
   compiled executor, bit-identical to Sim_run.run_segments, one pool
   batch at a time: the batch's runs share one tally, flushed once into
   the batch's fresh collector, and one absorbed "run-" prefix. *)
let segments_sampler ~model ~downtime plan ~first ~last root report =
  let tally = Sim_run.tally () and prefix = Rng.run_prefix root in
  for r = first to last do
    let stream = stream_of_model model (Rng.substream_of_prefix prefix r) in
    report (Sim_run.run_plan ~downtime tally stream plan).Sim_run.makespan
  done;
  Sim_run.flush tally

let estimate_segments ?domains ?target_ci ?max_runs ~model ~downtime ~runs ~rng segments =
  replicate ?domains ?target_ci ?max_runs ~runs ~rng
    (segments_sampler ~model ~downtime (Sim_run.compile segments))

let estimate_chain_policy ?domains ?target_ci ?max_runs ~model ~downtime
    ~initial_recovery ~runs ~rng ~decide tasks =
  replicate ?domains ?target_ci ?max_runs ~runs ~rng
    (Parallel_exec.per_run (fun _run run_rng ->
         let stream = stream_of_model model run_rng in
         (Sim_run.run_chain_policy_stats ~initial_recovery ~downtime ~decide
            ~next_failure:(Failure_stream.next_after stream)
            tasks)
           .Sim_run.makespan))

type distribution = { samples : float array; estimate : estimate }

let collect_segments ?domains ~model ~downtime ~runs ~rng segments =
  if runs <= 0 then invalid_arg "Monte_carlo.collect_segments: runs must be positive";
  let samples, acc =
    Parallel_exec.collect ?domains ~runs ~seed:(Rng.seed_of rng)
      (segments_sampler ~model ~downtime (Sim_run.compile segments))
  in
  Array.sort Float.compare samples;
  { samples; estimate = estimate_of_welford acc }

let quantile d q = Ckpt_stats.Descriptive.quantile d.samples q

let estimate_chain_policy_on_logs ?domains ~downtime ~initial_recovery ~logs ~decide tasks =
  if logs = [] then invalid_arg "Monte_carlo.estimate_chain_policy_on_logs: no traces";
  let traces = Array.of_list logs in
  (* Replay is deterministic per trace; the pool's substreams are unused. *)
  let acc =
    Parallel_exec.estimate ?domains ~runs:(Array.length traces) ~seed:0L
      (Parallel_exec.per_run (fun run _rng ->
           let stream = Trace.to_stream traces.(run) in
           (Sim_run.run_chain_policy_stats ~initial_recovery ~downtime ~decide
              ~next_failure:(Failure_stream.next_after stream)
              tasks)
             .Sim_run.makespan))
  in
  estimate_of_welford acc
