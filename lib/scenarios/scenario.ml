module Rng = Ckpt_prng.Rng
module Law = Ckpt_dist.Law
module Task = Ckpt_dag.Task
module Failure_stream = Ckpt_failures.Failure_stream
module Injector = Ckpt_failures.Injector
module Sim_run = Ckpt_sim.Sim_run
module Metrics = Ckpt_obs.Metrics

(* Harness metrics: every scenario run lands in these, so a CI smoke run
   leaves an auditable trail in the metrics report. *)
let m_runs = Metrics.counter "scenario.runs"
let m_checks = Metrics.counter "scenario.monitor_checks"
let m_violations = Metrics.counter "scenario.monitor_violations"

type workload =
  | Segments of { segments : Sim_run.segment list; downtime : float }
  | Chain of {
      tasks : Task.t array;
      initial_recovery : float;
      downtime : float;
      period : int;  (** Checkpoint after every [period]-th task. *)
    }

type t = {
  name : string;
  description : string;
  workload : workload;
  injector : phase:(unit -> Injector.phase) -> Rng.t -> Injector.t;
}

type outcome = {
  scenario : string;
  seed : int64;
  stats : Sim_run.run_stats;
  events : Sim_run.event list;
  verdicts : Monitor.verdict list;
  digest : string;
}

(* {1 Monitor spec derivation} *)

let spec_of_workload workload =
  let spec ~downtime ~lower_bound (segments : Sim_run.segment array) =
    let expected i = if i >= 0 && i < Array.length segments then Some segments.(i) else None in
    { Monitor.downtime; lower_bound; expected }
  in
  match workload with
  | Segments { segments; downtime } ->
      let lower_bound =
        List.fold_left
          (fun acc (s : Sim_run.segment) -> acc +. s.work +. s.checkpoint)
          0.0 segments
      in
      spec ~downtime ~lower_bound (Array.of_list segments)
  | Chain { tasks; initial_recovery; downtime; period } ->
      let segments = Sim_run.chain_segments ~initial_recovery tasks in
      let n = Array.length segments in
      (* The periodic policy is a pure function of the task index, so
         the failure-free makespan — total work plus every checkpoint
         the policy takes (the final one is forced) — is a sound lower
         bound under any fault scenario. *)
      let lower_bound = ref 0.0 in
      Array.iteri
        (fun i (s : Sim_run.segment) ->
          lower_bound := !lower_bound +. s.work;
          if i = n - 1 || (i + 1) mod period = 0 then
            lower_bound := !lower_bound +. s.checkpoint)
        segments;
      spec ~downtime ~lower_bound:!lower_bound segments

(* {1 Deterministic run + digest} *)

let phase_of_sim = function
  | Sim_run.Work_phase -> Injector.Work
  | Sim_run.Checkpoint_phase -> Injector.Checkpoint
  | Sim_run.Downtime_phase -> Injector.Downtime
  | Sim_run.Recovery_phase -> Injector.Recovery

let phase_char = function
  | Sim_run.Work_phase -> 'W'
  | Sim_run.Checkpoint_phase -> 'C'
  | Sim_run.Downtime_phase -> 'D'
  | Sim_run.Recovery_phase -> 'R'

(* The digest pins the full observable behaviour of a run: every event
   (timestamps at full float precision), the run stats, and the monitor
   verdicts. Same scenario + same seed must reproduce it bit for bit. *)
let digest_outcome ~scenario ~seed ~(stats : Sim_run.run_stats) ~events ~verdicts =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf scenario;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Int64.to_string seed);
  Buffer.add_char buf '\n';
  List.iter
    (fun (e : Sim_run.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%c %d %.17g %.17g %c\n" (phase_char e.phase) e.segment e.start
           e.finish
           (if e.interrupted then 'x' else '.')))
    events;
  Buffer.add_string buf
    (Printf.sprintf "makespan %.17g failures %d\n" stats.makespan stats.failures);
  List.iter
    (fun (v : Monitor.verdict) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d %d\n" v.monitor v.checks v.violations))
    verdicts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run t ~seed =
  let rng = Rng.create ~seed in
  let inject_rng = Rng.substream rng "inject" in
  let phase_cell = ref Injector.Work in
  let injector = t.injector ~phase:(fun () -> !phase_cell) inject_rng in
  let spec = spec_of_workload t.workload in
  let monitor = Monitor.create spec in
  let events = ref [] in
  let emit e =
    events := e :: !events;
    Monitor.on_event monitor e
  in
  let on_phase ph (_ : float) = phase_cell := phase_of_sim ph in
  let next_failure = Injector.to_fun injector in
  let stats =
    match t.workload with
    | Segments { segments; downtime } ->
        Sim_run.run_segments_emitting ~emit ~on_phase ~downtime ~next_failure segments
    | Chain { tasks; initial_recovery; downtime; period } ->
        Sim_run.run_chain_policy_stats ~emit ~on_phase ~initial_recovery ~downtime
          ~decide:(fun ctx -> (ctx.Sim_run.task_index + 1) mod period = 0)
          ~next_failure tasks
  in
  let events = List.rev !events in
  let verdicts = Monitor.finalize monitor ~makespan:stats.makespan in
  Metrics.incr m_runs;
  Metrics.incr ~by:(Monitor.total_checks verdicts) m_checks;
  let violations = Monitor.total_violations verdicts in
  Metrics.incr ~by:violations m_violations;
  Metrics.incr ~by:violations (Metrics.counter ("scenario." ^ t.name ^ ".violations"));
  let digest = digest_outcome ~scenario:t.name ~seed ~stats ~events ~verdicts in
  { scenario = t.name; seed; stats; events; verdicts; digest }

(* {1 The registry} *)

(* Shared segment workload: six equal segments, checkpoint after each.
   Scenarios vary only the fault process, so their outcomes are directly
   comparable. *)
let standard_segments =
  Segments
    {
      segments =
        List.init 6 (fun _ -> Sim_run.segment ~work:8.0 ~checkpoint:0.8 ~recovery:1.5);
      downtime = 0.5;
    }

let chain_workload =
  Chain
    {
      tasks =
        Array.init 12 (fun i ->
            Task.make ~id:i
              ~work:(2.0 +. float_of_int (i mod 3))
              ~checkpoint_cost:0.6 ~recovery_cost:1.2 ());
      initial_recovery = 1.0;
      downtime = 0.4;
      period = 3;
    }

(* Burst times for the replay scenario: a dozen bursts, each delivering
   one to three processor failures at the very same instant — the
   exact-tie coalescing case pinned by Failure_stream's simultaneity
   contract. *)
let tie_burst_times rng =
  let t = ref 0.0 in
  let out = ref [] in
  for _ = 1 to 12 do
    t := !t +. 4.0 +. (8.0 *. Rng.float rng);
    let copies = 1 + Rng.int rng 3 in
    for _ = 1 to copies do
      out := !t :: !out
    done
  done;
  Array.of_list (List.rev !out)

let all =
  [
    {
      name = "baseline-exp";
      description = "i.i.d. exponential failures (the paper's Section 2 model)";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng -> Injector.of_stream (Failure_stream.poisson ~rate:0.02 rng));
    };
    {
      name = "renewal-weibull";
      description =
        "8 processors with decreasing-hazard Weibull lifetimes (Section 6 regime)";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng ->
          Injector.of_stream
            (Failure_stream.renewal
               ~law:(Law.weibull_of_mean ~shape:0.7 ~mean:360.0)
               ~processors:8 rng));
    };
    {
      name = "cascading-aftershocks";
      description =
        "exponential base process with correlated aftershock cascades (sub-critical \
         branching)";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng ->
          Injector.aftershocks ~probability:0.6 ~rate:0.5 ~window:20.0 rng
            (Injector.of_stream (Failure_stream.poisson ~rate:0.01 rng)));
    };
    {
      name = "ckpt-io-hazard";
      description =
        "failure rate concentrated in checkpoint and recovery I/O (phase-modulated \
         hazard)";
      workload = standard_segments;
      injector =
        (fun ~phase rng ->
          Injector.exp_phase_modulated ~base_rate:0.008
            ~multiplier:(function
              | Injector.Work -> 1.0
              | Injector.Checkpoint -> 15.0
              | Injector.Recovery -> 10.0
              | Injector.Downtime -> 0.0)
            ~phase rng);
    };
    {
      name = "transient-masked";
      description =
        "dense fault process, 70% transient (masked by the platform), 30% fail-stop";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng ->
          Injector.masked ~survive_prob:0.7 rng
            (Injector.of_stream (Failure_stream.poisson ~rate:0.08 rng)));
    };
    {
      name = "drifting-hazard";
      description = "non-homogeneous Poisson failures with a wear-out hazard ramp";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng ->
          Injector.nonhomogeneous
            ~rate:(fun t -> Float.min (0.004 +. (0.001 *. t)) 0.104)
            ~rate_max:0.104 rng);
    };
    {
      name = "replay-tie-burst";
      description =
        "trace replay with simultaneous multi-processor failure bursts (exact-tie \
         coalescing)";
      workload = standard_segments;
      injector =
        (fun ~phase:_ rng ->
          Injector.of_stream
            (Failure_stream.of_times (tie_burst_times (Rng.substream rng "trace"))));
    };
    {
      name = "merged-phase-chain";
      description =
        "chain workload under the superposition (Injector.merge) of a \
         checkpoint-I/O-coupled hazard and an independent exponential stream";
      workload = chain_workload;
      injector =
        (fun ~phase rng ->
          (* Two labelled substreams keep each source's draws independent
             of the other's consumption — the superposition stays
             reproducible even if one source's draw count changes. *)
          Injector.merge
            (Injector.exp_phase_modulated ~base_rate:0.006
               ~multiplier:(function
                 | Injector.Work -> 1.0
                 | Injector.Checkpoint -> 12.0
                 | Injector.Recovery -> 8.0
                 | Injector.Downtime -> 0.0)
               ~phase (Rng.substream rng "phase"))
            (Injector.of_stream
               (Failure_stream.poisson ~rate:0.012 (Rng.substream rng "poisson"))));
    };
    {
      name = "chain-periodic-policy";
      description =
        "12-task chain under the every-3rd-task checkpoint policy, exponential \
         failures";
      workload = chain_workload;
      injector =
        (fun ~phase:_ rng -> Injector.of_stream (Failure_stream.poisson ~rate:0.02 rng));
    };
  ]

let names () = List.map (fun t -> t.name) all
let find name = List.find_opt (fun t -> String.equal t.name name) all

let run_all ~seed = List.map (fun t -> run t ~seed) all
