(* Tests for the parallel Monte-Carlo engine: the bit-identical-
   for-any-domain-count guarantee across every estimator, adaptive
   sampling semantics, exception-safe domain joining, and the
   Domain_team contract the engine runs on. *)

module Parallel_exec = Ckpt_sim.Parallel_exec
module Domain_team = Ckpt_sim.Domain_team
module Metrics = Ckpt_obs.Metrics
module Monte_carlo = Ckpt_sim.Monte_carlo
module Sim_run = Ckpt_sim.Sim_run
module Welford = Ckpt_stats.Welford
module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task

let seg = Sim_run.segment
let domain_counts = [ 1; 2; 3; 7 ]

(* Exact float equality: the guarantee is bit-identical, not close. *)
let same name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.17g = %.17g" name a b)
    true (Float.equal a b)

let check_identical_estimates ?(domain_counts = domain_counts) name of_domains =
  let reference = of_domains 1 in
  List.iter
    (fun domains ->
      let e = of_domains domains in
      let tag field = Printf.sprintf "%s (%d domains, %s)" name domains field in
      same (tag "mean") reference.Monte_carlo.mean e.Monte_carlo.mean;
      same (tag "stddev") reference.Monte_carlo.stddev e.Monte_carlo.stddev;
      same (tag "min") reference.Monte_carlo.min e.Monte_carlo.min;
      same (tag "max") reference.Monte_carlo.max e.Monte_carlo.max;
      Alcotest.(check int) (tag "runs") reference.Monte_carlo.runs e.Monte_carlo.runs)
    domain_counts

let test_estimate_segments_identical () =
  (* The compiled executor, up to eight domains: more domains than most
     machines running the suite have cores. *)
  check_identical_estimates ~domain_counts:[ 1; 2; 3; 7; 8 ] "estimate_segments"
    (fun domains ->
      Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.08)
        ~downtime:0.4 ~runs:3000 ~rng:(Rng.create ~seed:515L)
        [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ])

let chain_tasks =
  [| Task.make ~id:0 ~work:3.0 ~checkpoint_cost:0.5 ~recovery_cost:1.0 ();
     Task.make ~id:1 ~work:4.0 ~checkpoint_cost:0.4 ~recovery_cost:1.1 ();
     Task.make ~id:2 ~work:2.0 ~checkpoint_cost:0.3 ~recovery_cost:1.2 () |]

let test_estimate_chain_policy_identical () =
  check_identical_estimates "estimate_chain_policy" (fun domains ->
      Monte_carlo.estimate_chain_policy ~domains ~model:(Monte_carlo.Poisson_rate 0.06)
        ~downtime:0.3 ~initial_recovery:0.8 ~runs:2000 ~rng:(Rng.create ~seed:616L)
        ~decide:(fun ctx -> ctx.Sim_run.work_since_checkpoint >= 4.0)
        chain_tasks)

let test_collect_segments_identical () =
  let collect domains =
    Monte_carlo.collect_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.05)
      ~downtime:0.5 ~runs:2000 ~rng:(Rng.create ~seed:717L)
      [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ]
  in
  let reference = collect 1 in
  List.iter
    (fun domains ->
      let d = collect domains in
      Alcotest.(check bool)
        (Printf.sprintf "identical sample array (%d domains)" domains)
        true
        (d.Monte_carlo.samples = reference.Monte_carlo.samples);
      same
        (Printf.sprintf "identical mean (%d domains)" domains)
        reference.Monte_carlo.estimate.Monte_carlo.mean
        d.Monte_carlo.estimate.Monte_carlo.mean)
    domain_counts

let test_logs_replay_identical () =
  let rng = Rng.create ~seed:818L in
  let logs =
    List.init 40 (fun i ->
        let run_rng = Rng.substream rng (Printf.sprintf "log-%d" i) in
        let times =
          Array.init 6 (fun k -> (float_of_int k +. Rng.float run_rng) *. 4.0)
        in
        Ckpt_failures.Trace.of_times ~horizon:100.0 times)
  in
  check_identical_estimates "estimate_chain_policy_on_logs" (fun domains ->
      Monte_carlo.estimate_chain_policy_on_logs ~domains ~downtime:0.25
        ~initial_recovery:0.7
        ~logs
        ~decide:(fun _ -> true)
        chain_tasks)

let qcheck_parallel_equals_sequential =
  (* Random workloads and domain counts: the engine must be oblivious
     to the layout for any shape, not just the hand-picked ones. *)
  let gen =
    QCheck.Gen.(
      let* work = float_range 1.0 20.0 in
      let* checkpoint = float_range 0.0 2.0 in
      let* recovery = float_range 0.0 2.0 in
      let* rate = float_range 0.005 0.3 in
      let* runs = int_range 1 700 in
      let* domains = oneofl [ 2; 3; 7 ] in
      let* seed = int_range 1 1_000_000 in
      return (work, checkpoint, recovery, rate, runs, domains, seed))
  in
  QCheck.Test.make ~name:"parallel estimate is bit-identical to sequential" ~count:25
    (QCheck.make gen)
    (fun (work, checkpoint, recovery, rate, runs, domains, seed) ->
      let estimate domains =
        Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate rate)
          ~downtime:0.2 ~runs
          ~rng:(Rng.create ~seed:(Int64.of_int seed))
          [ seg ~work ~checkpoint ~recovery ]
      in
      let a = estimate 1 and b = estimate domains in
      Float.equal a.Monte_carlo.mean b.Monte_carlo.mean
      && Float.equal a.Monte_carlo.stddev b.Monte_carlo.stddev
      && Float.equal a.Monte_carlo.min b.Monte_carlo.min
      && Float.equal a.Monte_carlo.max b.Monte_carlo.max)

let test_adaptive_reaches_target () =
  let target_ci = 0.01 in
  let estimate =
    Monte_carlo.estimate_segments ~domains:2 ~target_ci ~max_runs:200_000
      ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4 ~runs:500
      ~rng:(Rng.create ~seed:919L)
      [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ]
  in
  let lo, hi = estimate.Monte_carlo.ci99 in
  let half = (hi -. lo) /. 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "CI half-width %.5f within %.5f of mean %.3f" half
       (target_ci *. estimate.Monte_carlo.mean)
       estimate.Monte_carlo.mean)
    true
    (half <= target_ci *. Float.abs estimate.Monte_carlo.mean);
  Alcotest.(check bool) "grew beyond the initial round" true
    (estimate.Monte_carlo.runs >= 500);
  Alcotest.(check bool) "under the cap" true (estimate.Monte_carlo.runs <= 200_000)

let test_adaptive_respects_cap () =
  (* An unreachable target must stop exactly at the cap. *)
  let estimate =
    Monte_carlo.estimate_segments ~domains:2 ~target_ci:1e-9 ~max_runs:800
      ~model:(Monte_carlo.Poisson_rate 0.1) ~downtime:0.2 ~runs:200
      ~rng:(Rng.create ~seed:1021L)
      [ seg ~work:5.0 ~checkpoint:0.5 ~recovery:1.0 ]
  in
  Alcotest.(check int) "stopped at the hard cap" 800 estimate.Monte_carlo.runs

let test_adaptive_deterministic_across_domains () =
  let estimate domains =
    Monte_carlo.estimate_segments ~domains ~target_ci:0.02 ~max_runs:100_000
      ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4 ~runs:300
      ~rng:(Rng.create ~seed:1122L)
      [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ]
  in
  let a = estimate 1 in
  List.iter
    (fun domains ->
      let b = estimate domains in
      Alcotest.(check int)
        (Printf.sprintf "same stopping point (%d domains)" domains)
        a.Monte_carlo.runs b.Monte_carlo.runs;
      same (Printf.sprintf "same adaptive mean (%d domains)" domains)
        a.Monte_carlo.mean b.Monte_carlo.mean)
    domain_counts

let test_adaptive_prefix_property () =
  (* The first n samples of a longer campaign are the shorter campaign:
     substream derivation is positional, not sequential. *)
  let collect runs =
    (Monte_carlo.collect_segments ~domains:3 ~model:(Monte_carlo.Poisson_rate 0.05)
       ~downtime:0.5 ~runs ~rng:(Rng.create ~seed:1223L)
       [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ])
      .Monte_carlo.samples
  in
  (* collect sorts; compare as multisets via sorted arrays. *)
  let short = collect 500 in
  let long = collect 1000 in
  let in_long = Hashtbl.create 1000 in
  Array.iter
    (fun x ->
      Hashtbl.replace in_long x (1 + Option.value ~default:0 (Hashtbl.find_opt in_long x)))
    long;
  let missing =
    Array.fold_left
      (fun acc x ->
        match Hashtbl.find_opt in_long x with
        | Some n when n > 0 ->
            Hashtbl.replace in_long x (n - 1);
            acc
        | _ -> acc + 1)
      0 short
  in
  Alcotest.(check int) "every short-campaign sample appears in the long campaign" 0 missing

exception Boom of int

let test_exception_joins_all_domains () =
  (* A worker that raises must not leave domains running or mask the
     exception; the engine must stay usable afterwards. *)
  let raised =
    try
      ignore
        (Parallel_exec.estimate ~domains:4 ~runs:2000 ~seed:42L
           (Parallel_exec.per_run (fun r _rng -> if r >= 700 then raise (Boom r) else 1.0)));
      None
    with Boom r -> Some r
  in
  (match raised with
  | Some r -> Alcotest.(check bool) "failing run index reported" true (r >= 700)
  | None -> Alcotest.fail "expected Boom to propagate");
  (* The pool is not poisoned: a follow-up campaign works and is exact. *)
  let acc =
    Parallel_exec.estimate ~domains:4 ~runs:1000 ~seed:42L (Parallel_exec.per_run (fun _ _ -> 2.5))
  in
  Alcotest.(check int) "subsequent campaign completes" 1000 (Welford.count acc);
  Alcotest.(check bool) "subsequent campaign correct" true
    (Float.equal 2.5 (Welford.mean acc))

let test_livelock_propagates () =
  (* The motivating bug: Sim_run.Livelock from one worker used to leak
     the other domains; now it must surface as a clean exception. *)
  let sample _run run_rng =
    let stream =
      Ckpt_failures.Failure_stream.renewal
        ~law:(Ckpt_dist.Law.deterministic 1.0) ~processors:1 run_rng
    in
    Sim_run.run_segments ~max_failures:500 ~downtime:0.0
      ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
      [ seg ~work:5.0 ~checkpoint:0.0 ~recovery:2.0 ]
  in
  match Parallel_exec.estimate ~domains:3 ~runs:50 ~seed:1L (Parallel_exec.per_run sample) with
  | exception Sim_run.Livelock _ -> ()
  | _ -> Alcotest.fail "expected Livelock to propagate through the pool"

let test_more_domains_than_runs () =
  Metrics.reset ();
  let acc =
    Parallel_exec.estimate ~domains:8 ~runs:3 ~seed:7L
      (Parallel_exec.per_run (fun r _ -> float_of_int r))
  in
  Alcotest.(check int) "all runs executed" 3 (Welford.count acc);
  Alcotest.(check bool) "mean of 0,1,2" true (Float.equal 1.0 (Welford.mean acc));
  (* One batch sizes the team to one participant: no domain starts
     without a batch to claim. *)
  Alcotest.(check bool) "no second participant" true
    (match Metrics.find (Metrics.snapshot ()) "pool.domain1.batches" with
    | None | Some (_, Metrics.Gauge None) -> true
    | Some _ -> false)

(* --- Domain_team, directly ------------------------------------------ *)

(* Every index 0..tasks-1 runs exactly once, on a participant in
   [0, size). With tasks = 0 any call would index past [hits] and fail
   the round. *)
let check_full_round team ~tasks =
  let size = Domain_team.size team in
  let hits = Array.init tasks (fun _ -> Atomic.make 0) in
  let strays = Atomic.make 0 in
  Domain_team.run team ~tasks (fun ~participant i ->
      if participant < 0 || participant >= size then Atomic.incr strays;
      Atomic.incr hits.(i));
  let wrong = Array.fold_left (fun n h -> if Atomic.get h = 1 then n else n + 1) 0 hits in
  Alcotest.(check int)
    (Printf.sprintf "indices not run exactly once (%d domains, %d tasks)" size tasks)
    0 wrong;
  Alcotest.(check int)
    (Printf.sprintf "participants outside [0, %d)" size)
    0 (Atomic.get strays)

let with_fresh_team ~domains fn =
  let team = Domain_team.create ~domains () in
  Fun.protect ~finally:(fun () -> Domain_team.shutdown team) (fun () -> fn team)

let test_team_runs_every_index_once () =
  List.iter
    (fun domains ->
      with_fresh_team ~domains (fun team ->
          Alcotest.(check int) "team size" domains (Domain_team.size team);
          List.iter (fun tasks -> check_full_round team ~tasks) [ 0; 1; 7; 300 ]))
    [ 1; 2; 3; 8 ]

let spin () =
  for _ = 1 to 2_000 do
    Domain.cpu_relax ()
  done

let test_team_exception_drains () =
  List.iter
    (fun domains ->
      with_fresh_team ~domains (fun team ->
          let started = Atomic.make 0 and finished = Atomic.make 0 in
          (match
             Domain_team.run team ~tasks:200 (fun ~participant:_ i ->
                 Atomic.incr started;
                 if i = 20 then raise (Boom i);
                 spin ();
                 Atomic.incr finished)
           with
          | () -> Alcotest.fail "expected Boom to propagate from run"
          | exception Boom 20 -> ());
          (* Every claimed task but the raising one completed before run
             returned: the round drained. *)
          Alcotest.(check int)
            (Printf.sprintf "round drained before re-raise (%d domains)" domains)
            (Atomic.get started - 1) (Atomic.get finished);
          (* Sequentially the claim order is 0, 1, ...: nothing after the
             raising task starts. *)
          if domains = 1 then
            Alcotest.(check int) "unclaimed tasks cancelled" 21 (Atomic.get started);
          check_full_round team ~tasks:100))
    [ 1; 3 ]

let test_team_shutdown () =
  let team = Domain_team.create ~domains:3 () in
  check_full_round team ~tasks:10;
  Domain_team.shutdown team;
  Domain_team.shutdown team;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Domain_team.run: team already shut down") (fun () ->
      Domain_team.run team ~tasks:1 (fun ~participant:_ _ -> ()))

let test_sampler_reports_each_run () =
  (* A batch sampler must report one value per run of its batch. *)
  let reporting k ~first ~last _root report =
    for _ = first to last + k do
      report 1.0
    done
  in
  List.iter
    (fun (k, message) ->
      Alcotest.check_raises message (Invalid_argument ("Parallel_exec: " ^ message)) (fun () ->
          ignore (Parallel_exec.estimate ~domains:1 ~runs:300 ~seed:1L (reporting k))))
    [ (-1, "sampler reported too few runs"); (1, "sampler reported too many runs") ];
  let acc = Parallel_exec.estimate ~domains:2 ~runs:300 ~seed:1L (reporting 0) in
  Alcotest.(check int) "one value per run" 300 (Welford.count acc)

let test_invalid_arguments () =
  let sample = Parallel_exec.per_run (fun _ _ -> 0.0) in
  Alcotest.check_raises "zero runs" (Invalid_argument "Parallel_exec: runs must be positive")
    (fun () -> ignore (Parallel_exec.estimate ~runs:0 ~seed:1L sample));
  Alcotest.check_raises "bad domains"
    (Invalid_argument "Parallel_exec: domains must be >= 1") (fun () ->
      ignore (Parallel_exec.estimate ~domains:0 ~runs:10 ~seed:1L sample));
  Alcotest.check_raises "cap below initial round"
    (Invalid_argument "Parallel_exec: max_runs must be >= runs") (fun () ->
      ignore
        (Parallel_exec.estimate_adaptive ~runs:100 ~max_runs:50 ~target_ci:0.1 ~seed:1L
           sample));
  Alcotest.check_raises "non-positive target"
    (Invalid_argument "Parallel_exec: target_ci must be positive") (fun () ->
      ignore
        (Parallel_exec.estimate_adaptive ~runs:100 ~max_runs:200 ~target_ci:0.0 ~seed:1L
           sample))

let suite =
  [
    Alcotest.test_case "estimate_segments bit-identical across domains" `Quick
      test_estimate_segments_identical;
    Alcotest.test_case "estimate_chain_policy bit-identical across domains" `Quick
      test_estimate_chain_policy_identical;
    Alcotest.test_case "collect_segments bit-identical across domains" `Quick
      test_collect_segments_identical;
    Alcotest.test_case "log replay bit-identical across domains" `Quick
      test_logs_replay_identical;
    QCheck_alcotest.to_alcotest qcheck_parallel_equals_sequential;
    Alcotest.test_case "adaptive sampling reaches the CI target" `Quick
      test_adaptive_reaches_target;
    Alcotest.test_case "adaptive sampling respects the run cap" `Quick
      test_adaptive_respects_cap;
    Alcotest.test_case "adaptive stopping is domain-count independent" `Quick
      test_adaptive_deterministic_across_domains;
    Alcotest.test_case "campaign extension preserves samples" `Quick
      test_adaptive_prefix_property;
    Alcotest.test_case "worker exception joins all domains" `Quick
      test_exception_joins_all_domains;
    Alcotest.test_case "livelock propagates through the pool" `Quick
      test_livelock_propagates;
    Alcotest.test_case "more domains than runs" `Quick test_more_domains_than_runs;
    Alcotest.test_case "argument validation" `Quick test_invalid_arguments;
    Alcotest.test_case "batch sampler reports each run once" `Quick
      test_sampler_reports_each_run;
    Alcotest.test_case "team runs every index once" `Quick test_team_runs_every_index_once;
    Alcotest.test_case "team re-raises after the round drains" `Quick
      test_team_exception_drains;
    Alcotest.test_case "team shutdown is final and idempotent" `Quick test_team_shutdown;
  ]
