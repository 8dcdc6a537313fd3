module Generate = Ckpt_dag.Generate
module Rng = Ckpt_prng.Rng
module Law = Ckpt_dist.Law
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Expected_time = Ckpt_core.Expected_time
module Brute_force = Ckpt_core.Brute_force
module Sim_run = Ckpt_sim.Sim_run
module Monte_carlo = Ckpt_sim.Monte_carlo
module Failure_stream = Ckpt_failures.Failure_stream
module Json = Ckpt_json.Json
module Server = Ckpt_serve.Server
module Client = Ckpt_serve.Client
module Clock = Ckpt_obs.Clock
module Metrics = Ckpt_obs.Metrics

type kind = Micro of (unit -> unit) | Macro of { repeats : int; fn : unit -> unit }
type case = { name : string; tags : string list; kind : kind }

let chain_problem n =
  let rng = Rng.create ~seed:(Int64.of_int (9000 + n)) in
  let spec = Generate.uniform_costs () in
  let dag = Generate.chain rng spec ~n in
  Chain_problem.of_dag ~downtime:0.2 ~lambda:(10.0 /. float_of_int n) dag

(* The Part-3 scaling workload: fixed seed, so the estimate is
   bit-identical for any domain count (the property bench/main.exe
   asserts) and runs differ only in wall time. *)
let mc_scaling_runs ~quick = if quick then 10_000 else 100_000

let mc_scaling_estimate ~quick ~domains =
  let rng = Rng.create ~seed:20_260_806L in
  let segments = [ Sim_run.segment ~work:100.0 ~checkpoint:5.0 ~recovery:5.0 ] in
  Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.01)
    ~downtime:1.0 ~runs:(mc_scaling_runs ~quick) ~rng segments

let assert_mc_deterministic () =
  let estimate domains =
    let rng = Rng.create ~seed:77_001L in
    let segments = [ Sim_run.segment ~work:50.0 ~checkpoint:2.0 ~recovery:2.0 ] in
    (Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.02)
       ~downtime:0.5 ~runs:2_000 ~rng segments)
      .Monte_carlo.mean
  in
  let d1 = estimate 1 and d3 = estimate 3 in
  if not (Float.equal d1 d3) then
    failwith
      (Printf.sprintf
         "Monte-Carlo determinism violated: mean %.17g at 1 domain, %.17g at 3" d1 d3)

(* The serve benches run a real loopback socket round-trip: server
   started and drained inside the timed call, so every invocation also
   exercises graceful shutdown. The mix is sequential and deadline-free,
   keeping the Engine-kind serve.* counters (requests, cache hits and
   misses) bit-identical across machines for the drift gate; only the
   latency histogram and the p99 gauge are Timing-kind. *)
let serve_p99_ms = Metrics.gauge ~kind:Metrics.Timing "serve.p99_ms"

let serve_chain_params k =
  let n = 5 + ((k * 7) mod 20) in
  Json.Obj
    [
      ("lambda", Json.Number (0.01 +. (float_of_int (k + 1) /. 150.0)));
      ("downtime", Json.Number (float_of_int (k mod 3) /. 10.0));
      ( "tasks",
        Json.List
          (List.init n (fun i ->
               Json.Obj
                 [
                   ( "work",
                     Json.Number
                       (1.0 +. (float_of_int (((i + 1) * (k + 2) * 7919) mod 89) /. 11.0))
                   );
                   ( "checkpoint",
                     Json.Number
                       (0.1 +. (float_of_int (((i + 3) * (k + 1) * 104729) mod 19) /. 23.0))
                   );
                   ( "recovery",
                     Json.Number
                       (0.2 +. (float_of_int (((i + 4) * (k + 3) * 1299709) mod 13) /. 17.0))
                   );
                 ])) );
    ]

let serve_round_trip ~requests fn =
  let server = Server.start { Server.default_config with workers = 2 } in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close client) (fun () ->
          for r = 0 to requests - 1 do
            fn client r
          done))

let serve_check_ok response =
  match Json.member "ok" response with
  | Some (Json.Bool true) -> ()
  | _ -> failwith ("serve bench: request failed: " ^ Json.to_string response)

let micro name tags fn = { name; tags; kind = Micro fn }
let macro ?(repeats = 12) name tags fn = { name; tags; kind = Macro { repeats; fn } }

let all ~quick =
  let kernels =
    [
      micro "prop1-closed-form" [ "kernel"; "core" ] (fun () ->
          ignore
            (Expected_time.expected_v ~work:100.0 ~checkpoint:5.0 ~downtime:1.0
               ~recovery:5.0 ~lambda:1e-4));
      (let problem = chain_problem 1000 in
       let schedule = Schedule.every_k problem 5 in
       micro "schedule-expectation-1000" [ "kernel"; "core" ] (fun () ->
           ignore (Schedule.expected_makespan schedule)));
      (let rng = Rng.create ~seed:777L in
       let law = Law.weibull ~shape:0.7 ~scale:100.0 in
       micro "weibull-renewal-next-failure" [ "kernel"; "failures" ] (fun () ->
           let stream = Failure_stream.renewal ~law ~processors:16 (Rng.split rng) in
           ignore (Failure_stream.next_after stream 0.0)));
      (let law = Law.weibull ~shape:0.7 ~scale:100.0 in
       let t =
         Ckpt_dist.Superposition.aged ~law
           ~ages:(Array.init 64 (fun i -> float_of_int i))
       in
       micro "superposition-survival-64" [ "kernel"; "dist" ] (fun () ->
           ignore (Ckpt_dist.Superposition.survival t 10.0)));
      (let law = Law.log_normal ~mu:1.0 ~sigma:1.2 in
       micro "mean-residual-life-lognormal" [ "kernel"; "dist" ] (fun () ->
           ignore (Law.mean_residual_life law ~elapsed:5.0)));
      (let problem = chain_problem 64 in
       let schedule = Schedule.every_k problem 4 in
       let segments = Schedule.to_sim_segments schedule in
       let rng = Rng.create ~seed:4242L in
       micro "simulate-64-task-run" [ "kernel"; "sim" ] (fun () ->
           let stream = Failure_stream.poisson ~rate:0.05 (Rng.split rng) in
           ignore
             (Sim_run.run_segments ~downtime:0.2
                ~next_failure:(Failure_stream.next_after stream)
                segments)));
    ]
  in
  (* The O(n^2) chain DP at four sizes: with quadratic scaling the
     per-call means should grow ~16x per 4x size step; a complexity
     regression shows up as a broken ratio across the set, not just one
     slow point. n = 3200 became affordable when the segment-cost
     kernel removed the per-transition exp/expm1. *)
  let dp_scaling =
    List.map
      (fun n ->
        let problem = chain_problem n in
        macro
          (Printf.sprintf "chain-dp-%d" n)
          [ "dp"; "scaling" ]
          (fun () -> ignore (Chain_dp.solve problem)))
      [ 50; 200; 800; 3200 ]
  in
  (* The monotone divide-and-conquer solver on the same generator
     (whose cost ranges always satisfy the monotonicity precheck, so no
     silent O(n^2) fallback: the dp.transitions snapshot in the bench
     JSON is the committed evidence of the ~n log n transition curve,
     and `ckpt-bench check` requires that metric). *)
  let dp_dc_scaling =
    List.map
      (fun n ->
        let problem = chain_problem n in
        macro
          (Printf.sprintf "chain-dp-dc-%d" n)
          [ "dp"; "dc"; "scaling" ]
          (fun () -> ignore (Chain_dp.solve_dc problem)))
      [ 800; 3200; 12800 ]
  in
  (* The SMAWK solver on the same generator (which always satisfies the
     monotonicity precheck, so dp.smawk_fallbacks stays 0 in the
     committed snapshot): near-linear transition counts are the point,
     and the dp.smawk_transitions metric in the bench JSON is the
     committed evidence. chain-dp-1e6 is the headline case — one
     million tasks as a routine solve. Its problem is built lazily so
     the 1e6-node generator runs once, inside the discarded warmup
     call, not at case-list construction (which every bench invocation
     pays even when the case is filtered out). *)
  let dp_smawk_scaling =
    List.map
      (fun n ->
        let problem = chain_problem n in
        macro
          (Printf.sprintf "chain-dp-smawk-%d" n)
          [ "dp"; "smawk"; "scaling" ]
          (fun () -> ignore (Chain_dp.solve_smawk problem)))
      [ 3200; 12800 ]
  in
  let dp_smawk_million =
    let problem = lazy (chain_problem 1_000_000) in
    [
      macro ~repeats:3 "chain-dp-1e6" [ "dp"; "smawk"; "scaling" ] (fun () ->
          ignore (Chain_dp.solve_smawk (Lazy.force problem)));
    ]
  in
  (* The complexity gate for the SMAWK claim, in the scenario-monitor
     style (failwith is a bench crash, not a silent timing): per-task
     transition counts must stay flat across a 16x size span, and at
     12800 tasks SMAWK must spend strictly fewer transitions than the
     divide-and-conquer solver on the identical instance. Each solve
     must also allocate under one minor word per task: the tables and
     the SMAWK workspace are allocated once per solve, so anything per
     state is a regression (minor words, unlike ns/task, do not depend
     on the machine). Counter deltas are read from snapshots without
     Metrics.reset, so the run-wide totals in the committed bench JSON
     stay intact. *)
  let dp_smawk_linearity =
    let counter name =
      match Metrics.find (Metrics.snapshot ()) name with
      | Some (_, Metrics.Counter c) -> c
      | _ -> 0
    in
    let delta name fn =
      let before = counter name in
      fn ();
      counter name - before
    in
    let sizes = [ 3200; 12800; 51200 ] in
    let problems = List.map (fun n -> (n, chain_problem n)) sizes in
    [
      macro ~repeats:3 "chain-dp-smawk-linearity" [ "dp"; "smawk" ] (fun () ->
          let per_task =
            List.map
              (fun (n, problem) ->
                let words = ref 0.0 in
                let t =
                  delta "dp.smawk_transitions" (fun () ->
                      let before = Gc.minor_words () in
                      ignore (Chain_dp.solve_smawk problem);
                      words := Gc.minor_words () -. before)
                in
                if !words > float_of_int n then
                  failwith
                    (Printf.sprintf
                       "smawk allocation: %.0f minor words at n=%d (bound 1 per task)"
                       !words n);
                float_of_int t /. float_of_int n)
              problems
          in
          List.iter2
            (fun n r ->
              if r > 60.0 then
                failwith
                  (Printf.sprintf
                     "smawk linearity: %.1f transitions/task at n=%d (bound 60)" r n))
            sizes per_task;
          (match (List.hd per_task, List.nth per_task 2) with
          | r_small, r_large when r_large > 2.0 *. r_small ->
              failwith
                (Printf.sprintf
                   "smawk linearity: transitions/task grew %.1f -> %.1f over a 16x \
                    size span"
                   r_small r_large)
          | _ -> ());
          let problem = List.assoc 12800 problems in
          let smawk_t =
            delta "dp.smawk_transitions" (fun () ->
                ignore (Chain_dp.solve_smawk problem))
          in
          let dc_t =
            delta "dp.transitions" (fun () -> ignore (Chain_dp.solve_dc problem))
          in
          if smawk_t >= dc_t then
            failwith
              (Printf.sprintf
                 "smawk spent %d transitions at n=12800 but divide-and-conquer only %d"
                 smawk_t dc_t));
    ]
  in
  let dp_other =
    [
      (let problem = chain_problem 256 in
       macro "chain-dp-memoized-256" [ "dp" ] (fun () ->
           ignore (Chain_dp.solve_memoized problem)));
      (let problem = chain_problem 128 in
       macro "chain-dp-budget-128-k16" [ "dp" ] (fun () ->
           ignore (Chain_dp.solve_with_budget problem ~checkpoints:16)));
      (let problem = chain_problem 16 in
       macro "chain-brute-force-16" [ "dp" ] (fun () ->
           ignore (Brute_force.chain_best problem)));
      (let works = Array.init 12 (fun i -> 1.0 +. float_of_int (i mod 5)) in
       macro "partition-dp-12" [ "dp" ] (fun () ->
           ignore
             (Brute_force.partition_best ~lambda:0.05 ~checkpoint:0.5 ~recovery:0.5
                ~downtime:0.0 works)));
      (let problem =
         Chain_problem.uniform ~lambda:0.05 ~checkpoint:1.0 ~recovery:1.0
           (List.init 12 (fun i -> float_of_int (1 + (i mod 5))))
       in
       let law = Law.weibull ~shape:0.7 ~scale:30.0 in
       macro "btw-pseudo-poly-12" [ "dp" ] (fun () ->
           ignore (Ckpt_core.Btw.pseudo_polynomial_best ~law problem)));
      (let tasks =
         List.init 8 (fun i ->
             Ckpt_core.Moldable_chain.task
               ~total_work:(2000.0 +. (500.0 *. float_of_int i))
               ~checkpoint:(Ckpt_core.Moldable.Proportional 50.0) ())
       in
       let problem =
         Ckpt_core.Moldable_chain.problem ~downtime:5.0 ~max_processors:256
           ~proc_rate:1e-6 tasks
       in
       macro "moldable-chain-dp-8x9" [ "dp" ] (fun () ->
           ignore (Ckpt_core.Moldable_chain.solve problem)));
    ]
  in
  let dist =
    [
      (let rng = Rng.create ~seed:31415L in
       let law = Law.weibull ~shape:0.7 ~scale:50.0 in
       let xs = Array.init 1000 (fun _ -> Law.sample law (Rng.split rng)) in
       macro "weibull-mle-1000-samples" [ "dist"; "fit" ] (fun () ->
           ignore (Ckpt_dist.Law_fit.weibull xs)));
    ]
  in
  (* Simulator throughput: a fixed batch of full runs per invocation, so
     the mean is directly comparable as time-per-batch and the
     per-invocation timing rises above clock granularity. *)
  let sim_throughput =
    let batch = if quick then 200 else 1_000 in
    let problem = chain_problem 64 in
    let schedule = Schedule.every_k problem 4 in
    let segments = Schedule.to_sim_segments schedule in
    [
      macro "sim-throughput" [ "sim" ]
        (fun () ->
          let rng = Rng.create ~seed:86_420L in
          for _ = 1 to batch do
            let stream = Failure_stream.poisson ~rate:0.05 (Rng.split rng) in
            ignore
              (Sim_run.run_segments ~downtime:0.2
                 ~next_failure:(Failure_stream.next_after stream)
                 segments)
          done);
    ]
  in
  (* The full deterministic scenario registry, monitors on: regressions
     here mean the harness (injector combinators + monitor checks) got
     slower, or a scenario started violating its invariants (failwith
     shows up as a bench crash, not a silent timing). *)
  let scenario_smoke =
    [
      macro ~repeats:6 "sim-scenario-smoke" [ "sim"; "scenarios" ] (fun () ->
          List.iter
            (fun (o : Ckpt_scenarios.Scenario.outcome) ->
              if not (Ckpt_scenarios.Monitor.ok o.verdicts) then
                failwith ("scenario " ^ o.scenario ^ ": monitor violation"))
            (Ckpt_scenarios.Scenario.run_all ~seed:20_260_807L));
    ]
  in
  (* Coverage-guided seed sweep over the whole registry: times how long
     reaching 100% fault-injection branch coverage takes, and fails the
     bench if the budget ever stops sufficing (a combinator branch that
     became unreachable, or a scenario change that starved one). The
     cov.* counters it drives end up in the bench JSON snapshot, where
     `ckpt-bench check` pins at least one as a required metric. *)
  let scenario_coverage =
    [
      macro ~repeats:3 "scenario-coverage" [ "sim"; "scenarios" ] (fun () ->
          let o =
            Ckpt_scenarios.Coverage.sweep ~budget:16
              ~scenarios:Ckpt_scenarios.Scenario.all ~seed:42L ()
          in
          if not (Ckpt_scenarios.Coverage.complete o) then
            failwith
              ("scenario-coverage: uncovered branches: "
              ^ String.concat ", " o.Ckpt_scenarios.Coverage.uncovered));
    ]
  in
  let mc_pool =
    List.map
      (fun domains ->
        macro ~repeats:6
          (Printf.sprintf "mc-pool-d%d" domains)
          [ "mc"; "scaling" ]
          (fun () -> ignore (mc_scaling_estimate ~quick ~domains)))
      [ 1; 2; 4; 8 ]
  in
  (* The serving layer end to end (socket, framing, queue, worker pool,
     plan cache). serve-throughput repeats a small instance family so
     the cache serves most of the mix; serve-p99 measures per-request
     round-trip latencies client-side and publishes the tail as the
     serve.p99_ms gauge alongside the serve.latency_ms histogram. *)
  let serve_cases =
    let distinct = 6 in
    let rounds = if quick then 3 else 8 in
    [
      macro ~repeats:6 "serve-throughput" [ "serve" ] (fun () ->
          serve_round_trip ~requests:(distinct * rounds) (fun client r ->
              serve_check_ok
                (Client.call client
                   ~id:(Printf.sprintf "bench-%d" r)
                   ~params:(serve_chain_params (r mod distinct))
                   "plan_chain")));
      macro ~repeats:6 "serve-p99" [ "serve" ] (fun () ->
          let latencies_ms =
            Array.make (distinct * rounds) 0.0
            [@lint.domain_safe "single-domain: filled and read by the bench driver only"]
          in
          serve_round_trip ~requests:(distinct * rounds) (fun client r ->
              let elapsed_s, () =
                Clock.time (fun () ->
                    serve_check_ok
                      (Client.call client
                         ~id:(Printf.sprintf "p99-%d" r)
                         ~params:(serve_chain_params (r mod distinct))
                         "plan_chain"))
              in
              latencies_ms.(r) <- elapsed_s *. 1e3);
          Array.sort Float.compare latencies_ms;
          let n = Array.length latencies_ms in
          let idx = Stdlib.min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1) in
          Metrics.set serve_p99_ms latencies_ms.(idx));
    ]
  in
  kernels @ dp_scaling @ dp_dc_scaling @ dp_smawk_scaling @ dp_smawk_million
  @ dp_smawk_linearity @ dp_other @ dist @ sim_throughput
  @ scenario_smoke @ scenario_coverage @ mc_pool @ serve_cases
