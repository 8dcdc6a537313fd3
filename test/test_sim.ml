(* Tests for the discrete-event simulator: deterministic scripted-failure
   scenarios with hand-computed makespans, equivalence between the two
   executors, and Monte-Carlo agreement with Proposition 1. *)

module Sim_run = Ckpt_sim.Sim_run
module Monte_carlo = Ckpt_sim.Monte_carlo
module Failure_stream = Ckpt_failures.Failure_stream
module Task = Ckpt_dag.Task
module Rng = Ckpt_prng.Rng

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let run_with_failures ?(downtime = 0.5) segments failure_times =
  let stream = Failure_stream.of_times (Array.of_list failure_times) in
  Sim_run.run_segments ~downtime ~next_failure:(Failure_stream.next_after stream) segments

let seg = Sim_run.segment

let test_no_failure () =
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0;
                   seg ~work:5.0 ~checkpoint:0.5 ~recovery:1.0 ] in
  close "failure-free makespan is sum of work+checkpoints" 16.5
    (run_with_failures segments [])

let test_failure_during_work () =
  (* w=10 c=1 r=2 D=0.5; failure at t=4:
     downtime 4 -> 4.5, recovery 4.5 -> 6.5, re-run 6.5 + 11 = 17.5. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  close "single mid-work failure" 17.5 (run_with_failures segments [ 4.0 ])

let test_failure_during_checkpoint () =
  (* Failure at t = 10.5, inside the checkpoint: same rollback as work.
     10.5 -> down 11.0 -> recovered 13.0 -> +11 = 24.0. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  close "failure during checkpoint" 24.0 (run_with_failures segments [ 10.5 ])

let test_failure_during_recovery () =
  (* Failure at 4, downtime to 4.5, recovery would end 6.5 but a second
     failure strikes at 5.0: downtime to 5.5, recovery 5.5 -> 7.5,
     re-run 7.5 + 11 = 18.5. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  close "failure during recovery" 18.5 (run_with_failures segments [ 4.0; 5.0 ])

let test_failure_during_downtime_ignored () =
  (* Second failure at 4.2 lands inside the downtime window (4, 4.5]:
     the paper's model says failures cannot strike during downtime, so
     it is absorbed. 4.5 -> 6.5 recovery -> 17.5. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  close "failure during downtime absorbed" 17.5 (run_with_failures segments [ 4.0; 4.2 ])

let test_multi_segment_rollback_scope () =
  (* Two segments; failure in the second rolls back only the second. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0;
                   seg ~work:5.0 ~checkpoint:0.5 ~recovery:3.0 ] in
  (* Segment 1 finishes at 11. Failure at 13 (inside segment 2):
     down to 13.5, recovery (R of segment-2 start = 3) to 16.5,
     re-run 5.5 -> 22.0. *)
  close "rollback limited to current segment" 22.0 (run_with_failures segments [ 13.0 ])

let test_boundary_failure_counts_as_success () =
  (* A failure exactly at the completion instant does not interrupt. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  close "boundary failure" 11.0 (run_with_failures segments [ 11.0 ])

let test_zero_downtime () =
  let segments = [ seg ~work:4.0 ~checkpoint:0.0 ~recovery:1.0 ] in
  let stream = Failure_stream.of_times [| 2.0 |] in
  let makespan =
    Sim_run.run_segments ~downtime:0.0 ~next_failure:(Failure_stream.next_after stream)
      segments
  in
  (* fail at 2 -> recovery 2 -> 3 -> re-run 3 + 4 = 7. *)
  close "zero downtime" 7.0 makespan

let chain_tasks works cs rs =
  Array.of_list
    (List.mapi
       (fun i ((w, c), r) -> Task.make ~id:i ~work:w ~checkpoint_cost:c ~recovery_cost:r ())
       (List.combine (List.combine works cs) rs))

let test_chain_policy_matches_segments () =
  (* Static placement: chains run on the segment executor's loop, so the
     two entry points agree on any replayed trace, up to the rounding of
     the merged segments' work sums (exactly when the clocks are exact:
     see the property below). *)
  let tasks = chain_tasks [ 3.0; 4.0; 2.0; 5.0 ] [ 0.5; 0.4; 0.3; 0.2 ] [ 1.0; 1.1; 1.2; 1.3 ] in
  let placement = [| false; true; false; true |] in
  let failure_times = [ 2.0; 6.0; 9.5; 14.0; 15.0 ] in
  let downtime = 0.25 in
  let initial_recovery = 0.7 in
  (* Build equivalent segments: tasks 0-1 (ckpt C=0.4, recovery R0), tasks 2-3. *)
  let segments =
    [ seg ~work:7.0 ~checkpoint:0.4 ~recovery:initial_recovery;
      seg ~work:7.0 ~checkpoint:0.2 ~recovery:1.1 ]
  in
  let run_seg =
    let stream = Failure_stream.of_times (Array.of_list failure_times) in
    Sim_run.run_segments ~downtime ~next_failure:(Failure_stream.next_after stream) segments
  in
  let run_pol =
    let stream = Failure_stream.of_times (Array.of_list failure_times) in
    (Sim_run.run_chain_policy_stats ~initial_recovery ~downtime
       ~decide:(fun ctx -> placement.(ctx.Sim_run.task_index))
       ~next_failure:(Failure_stream.next_after stream)
       tasks)
      .Sim_run.makespan
  in
  close "policy executor equals segment executor" run_seg run_pol

let qcheck_policy_equals_segments =
  (* Randomised version of the same equivalence. Durations and downtime
     are multiples of 1/4 and failure times multiples of 1/8, so both
     executors' clocks are exact and must agree bit for bit. Each pick
     adds a failure at the end of a completed work or checkpoint phase
     of the chain's run under the failures so far, no earlier than the
     last pick, so it lands on that end in the final run too: the
     boundary rule decides it. *)
  let grid k lo hi = QCheck.Gen.map (fun i -> float_of_int i /. k) (QCheck.Gen.int_range lo hi) in
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* works = list_size (return n) (grid 4.0 2 20) in
      let* cs = list_size (return n) (grid 4.0 0 4) in
      let* rs = list_size (return n) (grid 4.0 0 8) in
      let* mask = int_range 0 ((1 lsl n) - 1) in
      let* failures = list_size (int_range 0 12) (grid 8.0 1 320) in
      let* downtime = grid 4.0 0 4 in
      let* picks = list_size (int_range 0 6) nat in
      return (works, cs, rs, mask, List.sort compare failures, downtime, picks))
  in
  let print =
    QCheck.Print.(tup7 (list float) (list float) (list float) int (list float) float (list int))
  in
  QCheck.Test.make ~name:"chain-policy executor equals segment executor" ~count:1000
    (QCheck.make ~print gen) (fun (works, cs, rs, mask, failures, downtime, picks) ->
      let n = List.length works in
      let tasks = chain_tasks works cs rs in
      let placement = Array.init n (fun i -> i = n - 1 || mask land (1 lsl i) <> 0) in
      let initial_recovery = 0.5 in
      (* Segments from the placement. *)
      let segments =
        let rec build acc first i =
          if i = n then List.rev acc
          else if placement.(i) then begin
            let work = ref 0.0 in
            for k = first to i do
              work := !work +. tasks.(k).Task.work
            done;
            let recovery =
              if first = 0 then initial_recovery else tasks.(first - 1).Task.recovery_cost
            in
            build
              (seg ~work:!work ~checkpoint:tasks.(i).Task.checkpoint_cost ~recovery :: acc)
              (i + 1) (i + 1)
          end
          else build acc first (i + 1)
        in
        build [] 0 0
      in
      let next_failure times =
        Failure_stream.next_after (Failure_stream.of_times (Array.of_list times))
      in
      let run_chain ?emit times =
        Sim_run.run_chain_policy_stats ?emit ~initial_recovery ~downtime
          ~decide:(fun ctx -> placement.(ctx.Sim_run.task_index))
          ~next_failure:(next_failure times) tasks
      in
      let phase_ends times =
        let ends = ref [] in
        let emit (e : Sim_run.event) =
          match e.phase with
          | (Sim_run.Work_phase | Sim_run.Checkpoint_phase) when not e.interrupted ->
              ends := e.finish :: !ends
          | _ -> ()
        in
        ignore (run_chain ~emit times);
        !ends
      in
      let times, _ =
        List.fold_left
          (fun (times, last) pick ->
            match List.filter (fun t -> t >= last) (phase_ends times) with
            | [] -> (times, last)
            | ends ->
                let b = List.nth ends (pick mod List.length ends) in
                (List.merge compare [ b ] times, b))
          (failures, 0.0) picks
      in
      let a = Sim_run.run_segments_stats ~downtime ~next_failure:(next_failure times) segments in
      let b = run_chain times in
      Float.equal a.Sim_run.makespan b.Sim_run.makespan && a.Sim_run.failures = b.Sim_run.failures)

let test_context_fields () =
  (* Check the policy sees sensible context values on a scripted run. *)
  let tasks = chain_tasks [ 3.0; 4.0; 2.0 ] [ 0.5; 0.5; 0.5 ] [ 1.0; 1.0; 1.0 ] in
  let contexts = ref [] in
  let stream = Failure_stream.of_times [| 4.0 |] in
  let _ =
    Sim_run.run_chain_policy_stats ~initial_recovery:0.0 ~downtime:0.0
      ~decide:(fun ctx ->
        contexts := ctx :: !contexts;
        true)
      ~next_failure:(Failure_stream.next_after stream)
      tasks
  in
  (* Execution: T0 done at 3 (ckpt -> 3.5), T1 would finish 7.5 but fails
     at 4: downtime 0, recovery from T0 (R=1) 4 -> 5, T1 re-runs 5 -> 9.
     The final task's checkpoint is forced, so [decide] is consulted for
     T0 (at t=3, no failure yet) and T1 (at t=9) only. *)
  match List.rev !contexts with
  | [ c0; c1 ] ->
      Alcotest.(check int) "first decision task" 0 c0.Sim_run.task_index;
      Alcotest.(check int) "no checkpoint yet" (-1) c0.Sim_run.last_checkpoint;
      close "first decision time" 3.0 c0.Sim_run.now;
      close "work since ckpt" 3.0 c0.Sim_run.work_since_checkpoint;
      close "since failure = now (no failure yet)" 3.0 c0.Sim_run.since_last_failure;
      Alcotest.(check int) "second decision task" 1 c1.Sim_run.task_index;
      Alcotest.(check int) "last checkpoint is T0" 0 c1.Sim_run.last_checkpoint;
      close "second decision time" 9.0 c1.Sim_run.now;
      close "since failure" 5.0 c1.Sim_run.since_last_failure;
      close "work since ckpt" 4.0 c1.Sim_run.work_since_checkpoint
  | contexts ->
      Alcotest.fail (Printf.sprintf "expected 2 decisions, saw %d" (List.length contexts))

let test_failure_count_matches_formula () =
  (* E(failures) = (e^(lambda(W+C)) - 1) e^(lambda R): validate by
     simulation through run_segments_stats. *)
  let lambda = 0.06 and work = 8.0 and checkpoint = 1.0 and downtime = 0.3 and recovery = 2.0 in
  let exact =
    Ckpt_core.Expected_time.expected_failures
      (Ckpt_core.Expected_time.make ~downtime ~recovery ~work ~checkpoint ~lambda ())
  in
  let rng = Rng.create ~seed:778L in
  let acc = Ckpt_stats.Welford.create () in
  for run = 0 to 149_999 do
    let stream =
      Failure_stream.poisson ~rate:lambda (Rng.substream rng (string_of_int run))
    in
    let stats =
      Sim_run.run_segments_stats ~downtime
        ~next_failure:(Failure_stream.next_after stream)
        [ seg ~work ~checkpoint ~recovery ]
    in
    Ckpt_stats.Welford.add acc (float_of_int stats.Sim_run.failures)
  done;
  (* 99.9% interval: the test must not flake on an unlucky seed. *)
  let lo, hi = Ckpt_stats.Welford.confidence_interval acc ~level:0.999 in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.4f in CI [%.4f, %.4f]" exact lo hi)
    true
    (lo <= exact && exact <= hi)

let test_stats_consistency () =
  (* run_segments and run_segments_stats agree on the makespan. *)
  let segments = [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ] in
  let a = run_with_failures segments [ 4.0; 5.0 ] in
  let stream = Failure_stream.of_times [| 4.0; 5.0 |] in
  let stats =
    Sim_run.run_segments_stats ~downtime:0.5
      ~next_failure:(Failure_stream.next_after stream)
      segments
  in
  close "same makespan" a stats.Sim_run.makespan;
  Alcotest.(check int) "both failures counted" 2 stats.Sim_run.failures

let test_traced_events () =
  (* Scripted scenario: w=10 c=1 r=2 D=0.5, failure at 4.
     Expected log: work [0,4) interrupted; downtime [4,4.5); recovery
     [4.5,6.5); work [6.5,16.5); checkpoint [16.5,17.5). *)
  let stream = Failure_stream.of_times [| 4.0 |] in
  let stats, events =
    Sim_run.run_segments_traced ~downtime:0.5
      ~next_failure:(Failure_stream.next_after stream)
      [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ]
  in
  close "traced makespan" 17.5 stats.Sim_run.makespan;
  Alcotest.(check int) "traced failures" 1 stats.Sim_run.failures;
  let expect = [
    (Sim_run.Work_phase, 0.0, 4.0, true);
    (Sim_run.Downtime_phase, 4.0, 4.5, false);
    (Sim_run.Recovery_phase, 4.5, 6.5, false);
    (Sim_run.Work_phase, 6.5, 16.5, false);
    (Sim_run.Checkpoint_phase, 16.5, 17.5, false);
  ] in
  Alcotest.(check int) "event count" (List.length expect) (List.length events);
  List.iter2
    (fun (phase, start, finish, interrupted) (e : Sim_run.event) ->
      Alcotest.(check bool) "phase" true (e.Sim_run.phase = phase);
      close "start" start e.Sim_run.start;
      close "finish" finish e.Sim_run.finish;
      Alcotest.(check bool) "interrupted flag" interrupted e.Sim_run.interrupted)
    expect events

let test_traced_consistency_with_plain () =
  (* The traced runner must produce the same makespan/failures as the
     plain one, and its events must tile the timeline without gaps. *)
  let segments = [ seg ~work:5.0 ~checkpoint:0.5 ~recovery:1.0;
                   seg ~work:3.0 ~checkpoint:0.2 ~recovery:0.8 ] in
  let failures = [| 2.0; 6.5; 7.0; 8.9 |] in
  let plain =
    let stream = Failure_stream.of_times failures in
    Sim_run.run_segments_stats ~downtime:0.3
      ~next_failure:(Failure_stream.next_after stream) segments
  in
  let traced, events =
    let stream = Failure_stream.of_times failures in
    Sim_run.run_segments_traced ~downtime:0.3
      ~next_failure:(Failure_stream.next_after stream) segments
  in
  close "same makespan" plain.Sim_run.makespan traced.Sim_run.makespan;
  Alcotest.(check int) "same failures" plain.Sim_run.failures traced.Sim_run.failures;
  let rec check_tiling previous_end events =
    match events with
    | [] -> close "events end at the makespan" traced.Sim_run.makespan previous_end
    | (e : Sim_run.event) :: rest ->
        close "no gap" previous_end e.Sim_run.start;
        Alcotest.(check bool) "non-negative span" true (e.Sim_run.finish >= e.Sim_run.start);
        check_tiling e.Sim_run.finish rest
  in
  check_tiling 0.0 events;
  (* Rendering sanity. *)
  let rendered = Ckpt_sim.Timeline.render ~width:60 events in
  Alcotest.(check bool) "render has legend" true
    (Astring_like.contains rendered "legend");
  Alcotest.(check bool) "summary mentions recovery" true
    (Astring_like.contains (Ckpt_sim.Timeline.summary events) "recovery")

let test_monte_carlo_matches_prop1 () =
  let lambda = 0.08 and work = 7.0 and checkpoint = 0.8 and downtime = 0.4 and recovery = 1.5 in
  let exact =
    Ckpt_core.Expected_time.expected_v ~work ~checkpoint ~downtime ~recovery ~lambda
  in
  let rng = Rng.create ~seed:909L in
  let estimate =
    Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate lambda) ~downtime
      ~runs:100_000 ~rng
      [ seg ~work ~checkpoint ~recovery ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "closed form %.4f inside simulated CI [%f, %f]" exact
       (fst estimate.Monte_carlo.ci99) (snd estimate.Monte_carlo.ci99))
    true
    (Monte_carlo.contains estimate.Monte_carlo.ci99 exact)

let test_parallel_monte_carlo_agrees () =
  let segments = [ seg ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ] in
  let sequential =
    Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4
      ~runs:20_000 ~rng:(Rng.create ~seed:4242L) segments
  in
  let parallel =
    Monte_carlo.estimate_segments ~domains:4 ~model:(Monte_carlo.Poisson_rate 0.08)
      ~downtime:0.4 ~runs:20_000 ~rng:(Rng.create ~seed:4242L) segments
  in
  (* Identical sample sets; only merge order differs. *)
  close ~tol:1e-9 "same mean" sequential.Monte_carlo.mean parallel.Monte_carlo.mean;
  close ~tol:1e-6 "same stddev" sequential.Monte_carlo.stddev parallel.Monte_carlo.stddev;
  close "same min" sequential.Monte_carlo.min parallel.Monte_carlo.min;
  close "same max" sequential.Monte_carlo.max parallel.Monte_carlo.max

let test_monte_carlo_reproducible () =
  let rng1 = Rng.create ~seed:31337L and rng2 = Rng.create ~seed:31337L in
  let segments = [ seg ~work:5.0 ~checkpoint:0.5 ~recovery:1.0 ] in
  let e1 =
    Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate 0.1) ~downtime:0.2
      ~runs:2000 ~rng:rng1 segments
  in
  let e2 =
    Monte_carlo.estimate_segments ~model:(Monte_carlo.Poisson_rate 0.1) ~downtime:0.2
      ~runs:2000 ~rng:rng2 segments
  in
  close "same seed, same estimate" e1.Monte_carlo.mean e2.Monte_carlo.mean

let test_run_on_trace () =
  let trace =
    Ckpt_failures.Trace.of_times ~horizon:100.0 [| 4.0 |]
  in
  let stats =
    Sim_run.run_plan ~downtime:0.5 (Sim_run.tally ())
      (Ckpt_failures.Trace.to_stream trace)
      (Sim_run.compile [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ])
  in
  close "trace-driven run" 17.5 stats.Sim_run.makespan

let test_livelock_guard () =
  (* Deterministic failures every 1.0 with a 2.0 recovery: the work can
     never complete; the guard must fire instead of spinning forever. *)
  let rng = Rng.create ~seed:1L in
  let stream =
    Ckpt_failures.Failure_stream.renewal ~law:(Ckpt_dist.Law.deterministic 1.0)
      ~processors:1 rng
  in
  let segments = [ seg ~work:5.0 ~checkpoint:0.0 ~recovery:2.0 ] in
  match
    Sim_run.run_segments ~max_failures:1000 ~downtime:0.0
      ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
      segments
  with
  | exception Sim_run.Livelock n -> Alcotest.(check bool) "counted" true (n > 1000)
  | makespan -> Alcotest.fail (Printf.sprintf "expected livelock, finished at %g" makespan)

let test_collect_distribution () =
  let rng = Rng.create ~seed:808L in
  let d =
    Monte_carlo.collect_segments ~model:(Monte_carlo.Poisson_rate 0.05) ~downtime:0.5
      ~runs:5000 ~rng
      [ seg ~work:10.0 ~checkpoint:1.0 ~recovery:2.0 ]
  in
  Alcotest.(check int) "all samples kept" 5000 (Array.length d.Monte_carlo.samples);
  (* Sorted. *)
  Array.iteri
    (fun i x ->
      if i > 0 then
        Alcotest.(check bool) "sorted" true (x >= d.Monte_carlo.samples.(i - 1)))
    d.Monte_carlo.samples;
  (* Quantiles bracket the mean; the minimum is the failure-free time. *)
  close "min is the failure-free run" 11.0 d.Monte_carlo.samples.(0);
  let median = Monte_carlo.quantile d 0.5 in
  let p99 = Monte_carlo.quantile d 0.99 in
  Alcotest.(check bool) "median < mean < p99 (right-skewed)" true
    (median < d.Monte_carlo.estimate.Monte_carlo.mean
     && d.Monte_carlo.estimate.Monte_carlo.mean < p99);
  (* The estimate matches the sample array. *)
  close ~tol:1e-9 "estimate mean = array mean"
    (Ckpt_stats.Descriptive.mean d.Monte_carlo.samples)
    d.Monte_carlo.estimate.Monte_carlo.mean

module Metrics = Ckpt_obs.Metrics

let sum_metric name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (_, Metrics.Sum s) -> s
  | Some _ -> Alcotest.failf "metric %S is not a sum" name
  | None -> Alcotest.failf "metric %S not registered" name

(* Lost-work vs lost-time attribution, scripted (hand-computed):
   sim.lost_work counts only productive work to re-execute; sim.lost_time
   counts the wall clock wiped out in interrupted windows. *)
let test_lost_accounting_segments () =
  let segments = [ seg ~work:10.0 ~checkpoint:5.0 ~recovery:1.0 ] in
  (* Failure at 12, inside the checkpoint (work done at 10): the whole
     segment work (10) is lost work; the elapsed 12 since the attempt
     started is lost time. Then D=1 to 13, recovery to 14, rerun
     14 + 15 = 29. *)
  Metrics.reset ();
  close "makespan" 29.0 (run_with_failures ~downtime:1.0 segments [ 12.0 ]);
  close "checkpoint failure loses the segment work" 10.0 (sum_metric "sim.lost_work");
  close "and the full elapsed window as time" 12.0 (sum_metric "sim.lost_time");
  (* Failure at 4, inside work: 4 units lost, both as work and time; a
     second failure at 5.4, inside the recovery window (4.5, 5.5), adds
     its elapsed 0.9 to lost time only. Timeline: down 5.4 -> 5.9,
     recovery -> 6.9, work -> 16.9, checkpoint -> 21.9. *)
  Metrics.reset ();
  close "makespan (work + recovery failure)" 21.9
    (run_with_failures ~downtime:0.5 segments [ 4.0; 5.4 ]);
  close "work-phase loss is the elapsed work" 4.0 (sum_metric "sim.lost_work");
  close "recovery loss is time, not work" 4.9 (sum_metric "sim.lost_time")

let test_lost_accounting_chain () =
  let tasks =
    Array.init 2 (fun i ->
        Task.make ~id:i ~work:10.0 ~checkpoint_cost:2.0 ~recovery_cost:1.0 ())
  in
  (* Always-checkpoint policy; failure at 11 inside task 0's checkpoint:
     lost work = accumulated work (10), lost time = 10 + elapsed
     checkpoint (1) = 11. Timeline: down 11 -> 12, initial recovery
     0.5 -> 12.5, task0 + C 12.5 -> 24.5, task1 + C 24.5 -> 36.5. *)
  Metrics.reset ();
  let stream = Failure_stream.of_times [| 11.0 |] in
  let stats =
    Sim_run.run_chain_policy_stats ~initial_recovery:0.5 ~downtime:1.0
      ~decide:(fun _ -> true)
      ~next_failure:(Failure_stream.next_after stream)
      tasks
  in
  close "chain makespan" 36.5 stats.Sim_run.makespan;
  Alcotest.(check int) "one failure" 1 stats.Sim_run.failures;
  close "chain checkpoint failure loses work only" 10.0 (sum_metric "sim.lost_work");
  close "chain lost time includes checkpoint elapsed" 11.0 (sum_metric "sim.lost_time")

let test_degenerate_segments_terminate () =
  (* Zero-length phases make no failure queries at all, so degenerate
     segments terminate under every stream type — even one failing
     "now" forever from a replay trace's perspective. *)
  let degenerate =
    [ seg ~work:0.0 ~checkpoint:0.0 ~recovery:0.0;
      seg ~work:0.0 ~checkpoint:1.0 ~recovery:0.5;
      seg ~work:10.0 ~checkpoint:0.0 ~recovery:2.0;
      seg ~work:0.0 ~checkpoint:0.0 ~recovery:0.0 ]
  in
  let streams =
    [
      ("replay", Failure_stream.of_times [| 0.5; 0.6; 0.7 |]);
      ("poisson", Failure_stream.poisson ~rate:0.5 (Rng.create ~seed:3L));
      ( "renewal",
        Failure_stream.renewal
          ~law:(Ckpt_dist.Law.weibull ~shape:0.7 ~scale:5.0)
          ~processors:4 (Rng.create ~seed:5L) );
    ]
  in
  List.iter
    (fun (name, stream) ->
      let stats =
        Sim_run.run_segments_stats ~max_failures:100_000 ~downtime:0.1
          ~next_failure:(Failure_stream.next_after stream)
          degenerate
      in
      Alcotest.(check bool)
        (name ^ ": degenerate segments terminate")
        true
        (stats.Sim_run.makespan >= 11.0))
    streams

let test_on_phase_hook_order () =
  (* The hook must fire once per phase about to execute, before its
     failure query, in chronological order. Scripted run: w=10 c=5 r=1
     D=1, failure at 12 (inside the checkpoint). *)
  let hooks = ref [] in
  let on_phase ph t = hooks := (ph, t) :: !hooks in
  let stream = Failure_stream.of_times [| 12.0 |] in
  ignore
    (Sim_run.run_segments_emitting ~emit:(fun _ -> ()) ~on_phase ~downtime:1.0
       ~next_failure:(Failure_stream.next_after stream)
       [ seg ~work:10.0 ~checkpoint:5.0 ~recovery:1.0 ]);
  let expected =
    [
      (Sim_run.Work_phase, 0.0); (Sim_run.Checkpoint_phase, 10.0);
      (Sim_run.Downtime_phase, 12.0); (Sim_run.Recovery_phase, 13.0);
      (Sim_run.Work_phase, 14.0); (Sim_run.Checkpoint_phase, 24.0);
    ]
  in
  Alcotest.(check int) "hook count" (List.length expected) (List.length !hooks);
  List.iter2
    (fun (ep, et) (ap, at) ->
      Alcotest.(check bool)
        (Printf.sprintf "phase at %g" et)
        true
        (ep = ap && Float.equal et at))
    expected (List.rev !hooks)

let test_chain_emits_events () =
  (* The chain executor's event log, scripted: 2 tasks (w=10 C=2 R=1),
     always checkpoint, initial recovery 0.5, D=1, failure at 11 inside
     task 0's checkpoint. Downtime/recovery carry the resume index 0. *)
  let tasks =
    Array.init 2 (fun i ->
        Task.make ~id:i ~work:10.0 ~checkpoint_cost:2.0 ~recovery_cost:1.0 ())
  in
  let events = ref [] in
  let stream = Failure_stream.of_times [| 11.0 |] in
  let stats =
    Sim_run.run_chain_policy_stats
      ~emit:(fun e -> events := e :: !events)
      ~initial_recovery:0.5 ~downtime:1.0
      ~decide:(fun _ -> true)
      ~next_failure:(Failure_stream.next_after stream)
      tasks
  in
  let expected =
    [
      { Sim_run.phase = Sim_run.Work_phase; segment = 0; start = 0.0; finish = 10.0;
        interrupted = false };
      { Sim_run.phase = Sim_run.Checkpoint_phase; segment = 0; start = 10.0;
        finish = 11.0; interrupted = true };
      { Sim_run.phase = Sim_run.Downtime_phase; segment = 0; start = 11.0; finish = 12.0;
        interrupted = false };
      { Sim_run.phase = Sim_run.Recovery_phase; segment = 0; start = 12.0; finish = 12.5;
        interrupted = false };
      { Sim_run.phase = Sim_run.Work_phase; segment = 0; start = 12.5; finish = 22.5;
        interrupted = false };
      { Sim_run.phase = Sim_run.Checkpoint_phase; segment = 0; start = 22.5;
        finish = 24.5; interrupted = false };
      { Sim_run.phase = Sim_run.Work_phase; segment = 1; start = 24.5; finish = 34.5;
        interrupted = false };
      { Sim_run.phase = Sim_run.Checkpoint_phase; segment = 1; start = 34.5;
        finish = 36.5; interrupted = false };
    ]
  in
  Alcotest.(check bool) "chain event log matches" true (List.rev !events = expected);
  close "stats makespan consistent" 36.5 stats.Sim_run.makespan

let test_nan_failure_time_rejected () =
  Alcotest.check_raises "NaN from the failure source is fatal"
    (Invalid_argument "Sim_run: next_failure returned NaN") (fun () ->
      ignore
        (Sim_run.run_segments ~downtime:0.5
           ~next_failure:(fun _ -> Float.nan)
           [ seg ~work:1.0 ~checkpoint:0.1 ~recovery:0.1 ]))

(* --- The compiled executor against its oracle ------------------------ *)

(* The sim.* Engine rows a run emitted into [collector], floats as %h so
   the comparison is bit for bit. *)
let sim_rows collector =
  Metrics.reset ();
  Metrics.merge_into ~dst:(Metrics.current ()) collector;
  let rows =
    List.filter_map
      (fun (name, _, value) ->
        if String.starts_with ~prefix:"sim." name then
          let cell =
            match value with
            | Metrics.Counter n -> string_of_int n
            | Metrics.Sum x -> Printf.sprintf "%h" x
            | Metrics.Gauge None -> "unset"
            | Metrics.Gauge (Some x) -> Printf.sprintf "%h" x
            | Metrics.Histogram h ->
                Printf.sprintf "%s / %h / %d"
                  (String.concat "," (Array.to_list (Array.map string_of_int h.Metrics.counts)))
                  h.Metrics.total h.Metrics.observations
          in
          Some (name, cell)
        else None)
      (Metrics.snapshot ())
  in
  Metrics.reset ();
  rows

type outcome = Finished of Sim_run.run_stats | Livelocked of int | Rejected of string

(* Run [f] in a fresh collector; the outcome and the sim.* rows it left. *)
let observed f =
  let collector = Metrics.create_collector () in
  let outcome =
    Metrics.with_collector collector (fun () ->
        match f () with
        | stats -> Finished stats
        | exception Sim_run.Livelock n -> Livelocked n
        | exception Invalid_argument msg -> Rejected msg)
  in
  (outcome, sim_rows collector)

let describe = function
  | Finished s ->
      Printf.sprintf "makespan %h, %d failures" s.Sim_run.makespan s.Sim_run.failures
  | Livelocked n -> Printf.sprintf "Livelock %d" n
  | Rejected msg -> "Invalid_argument " ^ msg

(* [make_stream ()] must build a fresh copy of the same source: the
   oracle and the compiled executor each consume one. *)
let check_against_oracle ?max_failures name ~downtime ~make_stream segments =
  let oracle, oracle_rows =
    observed (fun () ->
        let stream = make_stream () in
        Sim_run.run_segments_emitting ?max_failures ~emit:ignore ~downtime
          ~next_failure:(Failure_stream.next_after stream)
          segments)
  in
  let compiled, compiled_rows =
    observed (fun () ->
        let tally = Sim_run.tally () in
        Fun.protect
          ~finally:(fun () -> Sim_run.flush tally)
          (fun () ->
            Sim_run.run_plan ?max_failures ~downtime tally (make_stream ())
              (Sim_run.compile segments)))
  in
  Alcotest.(check string) (name ^ ": outcome") (describe oracle) (describe compiled);
  Alcotest.(check (list (pair string string))) (name ^ ": sim.* rows") oracle_rows compiled_rows

(* Seeded random plans: each duration is zero a quarter of the time, and
   the downtime a third of the time. *)
let random_plan rng =
  let duration () = if Rng.int rng 4 = 0 then 0.0 else Rng.float_range rng 0.1 5.0 in
  let segments =
    List.init (1 + Rng.int rng 8) (fun _ ->
        seg ~work:(duration ()) ~checkpoint:(duration ()) ~recovery:(duration ()))
  in
  let downtime = if Rng.int rng 3 = 0 then 0.0 else Rng.float_range rng 0.0 1.0 in
  (segments, downtime)

let phase_boundaries events =
  List.concat_map (fun e -> [ e.Sim_run.start; e.Sim_run.finish ]) events

(* The instants where a segment commits: the finish of an uninterrupted
   phase that the next segment's phases follow. *)
let rec segment_ends = function
  | (e : Sim_run.event) :: (next :: _ as rest) ->
      if (not e.interrupted) && next.Sim_run.segment > e.segment then
        e.finish :: segment_ends rest
      else segment_ends rest
  | [ e ] -> if e.interrupted then [] else [ e.finish ]
  | [] -> []

(* Failure times placed exactly on phase boundaries ([at], by default
   every phase start and finish): each new failure is such an instant of
   the traced run under the earlier ones, no earlier than the last of
   them, so it lands on that boundary in the final run too (duplicates
   included). *)
let boundary_failures ?(at = phase_boundaries) rng ~downtime segments =
  let rec grow times k =
    if k = 0 then times
    else begin
      let stream = Failure_stream.of_times (Array.of_list times) in
      let _, events =
        Sim_run.run_segments_traced ~downtime
          ~next_failure:(Failure_stream.next_after stream)
          segments
      in
      let last = List.fold_left Float.max 0.0 times in
      let candidates = at events |> List.filter (fun t -> t >= last) |> Array.of_list in
      if Array.length candidates = 0 then times
      else grow (times @ [ candidates.(Rng.int rng (Array.length candidates)) ]) (k - 1)
    end
  in
  Array.of_list (grow [] (Rng.int rng 7))

let test_run_plan_matches_oracle () =
  for case = 0 to 299 do
    let rng = Rng.substream (Rng.create ~seed:2024L) (Printf.sprintf "plan-%d" case) in
    let segments, downtime = random_plan rng in
    let times = boundary_failures rng ~downtime segments in
    let rate = Rng.float_range rng 0.01 0.4 in
    let scale = Rng.float_range rng 2.0 20.0 and processors = 1 + Rng.int rng 4 in
    let seed = Rng.int64 rng in
    let sources =
      [
        ("boundary times", fun () -> Failure_stream.of_times times);
        ("poisson", fun () -> Failure_stream.poisson ~rate (Rng.create ~seed));
        ( "weibull renewal",
          fun () ->
            Failure_stream.renewal
              ~law:(Ckpt_dist.Law.weibull ~shape:0.7 ~scale)
              ~processors (Rng.create ~seed) );
      ]
    in
    List.iter
      (fun (source, make_stream) ->
        let name = Printf.sprintf "case %d, %s" case source in
        check_against_oracle name ~downtime ~make_stream segments;
        (* A low failure bound: Livelock at the same count, with the
           same sim.checkpoints and losses up to it. *)
        check_against_oracle ~max_failures:(Rng.int rng 3) (name ^ ", livelock") ~downtime
          ~make_stream segments)
      sources
  done

(* One tally across many runs, flushed once into a fresh collector,
   leaves the rows of the same runs emitting per failure into one
   collector: the sums accumulate across runs in one per-failure order.
   300 runs, more than a 256-run pool batch, on the random plans (zero
   durations and downtimes); every tenth run has a failure bound of 0-2,
   so some end in Livelock, and every 25th ends in a NaN work segment,
   whose checkpoint query the Poisson stream answers with NaN. *)
let test_run_plan_one_tally_many_runs () =
  let runs =
    List.init 300 (fun case ->
        let rng = Rng.substream (Rng.create ~seed:2027L) (Printf.sprintf "tally-%d" case) in
        let segments, downtime = random_plan rng in
        let segments =
          if case mod 25 = 24 then
            segments @ [ { Sim_run.work = Float.nan; checkpoint = 1.0; recovery = 0.1 } ]
          else segments
        in
        let max_failures = if case mod 10 = 9 then Some (Rng.int rng 3) else None in
        let rate = Rng.float_range rng 0.05 0.5 and seed = Rng.int64 rng in
        (segments, downtime, max_failures, fun () -> Failure_stream.poisson ~rate (Rng.create ~seed)))
  in
  let outcome f =
    match f () with
    | stats -> Finished stats
    | exception Sim_run.Livelock n -> Livelocked n
    | exception Invalid_argument msg -> Rejected msg
  in
  let oracle = Metrics.create_collector () in
  let oracle_outcomes =
    Metrics.with_collector oracle (fun () ->
        List.map
          (fun (segments, downtime, max_failures, make_stream) ->
            outcome (fun () ->
                let stream = make_stream () in
                Sim_run.run_segments_emitting ?max_failures ~emit:ignore ~downtime
                  ~next_failure:(Failure_stream.next_after stream)
                  segments))
          runs)
  in
  let tally = Sim_run.tally () in
  let compiled_outcomes =
    List.map
      (fun (segments, downtime, max_failures, make_stream) ->
        outcome (fun () ->
            Sim_run.run_plan ?max_failures ~downtime tally (make_stream ())
              (Sim_run.compile segments)))
      runs
  in
  let compiled = Metrics.create_collector () in
  Metrics.with_collector compiled (fun () -> Sim_run.flush tally);
  let count p = List.length (List.filter p oracle_outcomes) in
  Alcotest.(check bool)
    "the runs include Livelock and NaN exits" true
    (count (function Livelocked _ -> true | _ -> false) > 0
    && count (function Rejected _ -> true | _ -> false) > 0);
  Alcotest.(check (list string))
    "outcomes" (List.map describe oracle_outcomes) (List.map describe compiled_outcomes);
  Alcotest.(check (list (pair string string))) "sim.* rows" (sim_rows oracle) (sim_rows compiled)

(* Long plans, 50-400 segments, so the failure-free stretches between
   failures run long. Work and checkpoint are each zero a tenth of the
   time, and a fifth of the checkpoints lie between 2^-54 and the
   smallest subnormal: small enough that [(t +. w) +. c] rounds to
   [t +. w] once the clock passes 1. *)
let long_plan rng =
  let work () = if Rng.int rng 10 = 0 then 0.0 else Rng.float_range rng 0.5 20.0 in
  let checkpoint () =
    match Rng.int rng 10 with
    | 0 -> 0.0
    | 1 | 2 -> Float.ldexp (Rng.float_range rng 1.0 2.0) (-55 - Rng.int rng 1020)
    | _ -> Rng.float_range rng 0.1 5.0
  in
  let segments =
    List.init (50 + Rng.int rng 351) (fun _ ->
        let work = work () in
        let checkpoint = checkpoint () in
        seg ~work ~checkpoint ~recovery:(Rng.float_range rng 0.0 5.0))
  in
  let downtime = if Rng.bool rng then 0.0 else Rng.float_range rng 0.0 2.0 in
  (segments, downtime)

(* Positive checkpoints that vanish from the failure-free clock:
   [(t +. w) +. c = t +. w]. *)
let absorbed_checkpoints segments =
  snd
    (List.fold_left
       (fun (t, absorbed) (s : Sim_run.segment) ->
         let work_end = t +. s.work in
         let ckpt_end = work_end +. s.checkpoint in
         let vanished = s.checkpoint > 0.0 && Float.equal ckpt_end work_end in
         (ckpt_end, if vanished then absorbed + 1 else absorbed))
       (0.0, 0) segments)

(* A Poisson rate giving [failures] failures per failure-free run. *)
let rate_for ~failures segments =
  failures
  /. List.fold_left (fun acc (s : Sim_run.segment) -> acc +. s.work +. s.checkpoint) 0.0 segments

let test_run_plan_long_plans () =
  let absorbed = ref 0 in
  for case = 0 to 39 do
    let rng = Rng.substream (Rng.create ~seed:2025L) (Printf.sprintf "long-%d" case) in
    let segments, downtime = long_plan rng in
    absorbed := !absorbed + absorbed_checkpoints segments;
    let rate = rate_for ~failures:(Rng.float_range rng 0.01 5.0) segments in
    let seed = Rng.int64 rng in
    let ends = boundary_failures ~at:segment_ends rng ~downtime segments in
    let sources =
      [
        ("no failures", fun () -> Failure_stream.of_times [||]);
        ("poisson", fun () -> Failure_stream.poisson ~rate (Rng.create ~seed));
        ("failures at segment ends", fun () -> Failure_stream.of_times ends);
      ]
    in
    List.iter
      (fun (source, make_stream) ->
        let name =
          Printf.sprintf "long case %d (%d segments), %s" case (List.length segments) source
        in
        check_against_oracle name ~downtime ~make_stream segments;
        check_against_oracle ~max_failures:(Rng.int rng 3) (name ^ ", livelock") ~downtime
          ~make_stream segments)
      sources
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d positive checkpoints vanish from the clock" !absorbed)
    true (!absorbed > 0)

let test_run_plan_unvalidated_segment () =
  (* One segment of a long plan is a record built without [seg]: its
     work is infinite or NaN, or its checkpoint negative. Every attempt
     at infinite work fails, so that run livelocks; NaN work makes a NaN
     query. The walk stops at all three, and a run that ends there ends
     after the walk has counted the checkpoints before it. *)
  for case = 0 to 11 do
    let rng = Rng.substream (Rng.create ~seed:2026L) (Printf.sprintf "unvalidated-%d" case) in
    let segments, downtime = long_plan rng in
    let rate = rate_for ~failures:(Rng.float_range rng 0.01 2.0) segments in
    let seed = Rng.int64 rng in
    let at = Rng.int rng (List.length segments) in
    let what, change =
      match case mod 3 with
      | 0 -> ("infinite work", fun (s : Sim_run.segment) -> { s with work = Float.infinity })
      | 1 -> ("NaN work", fun s -> { s with work = Float.nan })
      | _ -> ("negative checkpoint", fun s -> { s with checkpoint = -1.0 -. s.checkpoint })
    in
    let segments = List.mapi (fun i s -> if i = at then change s else s) segments in
    let max_failures = case mod 4 mod 3 in
    let make_stream () = Failure_stream.poisson ~rate (Rng.create ~seed) in
    let name = Printf.sprintf "%s at segment %d of %d" what at (List.length segments) in
    check_against_oracle ~max_failures name ~downtime ~make_stream segments;
    if case mod 3 = 0 then
      match
        fst
          (observed (fun () ->
               Sim_run.run_plan ~max_failures ~downtime (Sim_run.tally ()) (make_stream ())
                 (Sim_run.compile segments)))
      with
      | Livelocked _ -> ()
      | outcome -> Alcotest.failf "%s: expected a Livelock, got %s" name (describe outcome)
  done

let test_run_plan_nan_rejected () =
  (* A Poisson stream queried at a NaN clock answers NaN: the segment
     record below skips the validating constructor, so its checkpoint
     phase starts at a NaN time. Both executors reject the answer after
     the same checkpoint of the first segment. *)
  let segments =
    [ seg ~work:1.0 ~checkpoint:0.5 ~recovery:0.1;
      { Sim_run.work = Float.nan; checkpoint = 1.0; recovery = 0.1 } ]
  in
  let make_stream () = Failure_stream.poisson ~rate:1e-6 (Rng.create ~seed:8L) in
  check_against_oracle "NaN from the source" ~downtime:0.5 ~make_stream segments;
  Alcotest.check_raises "the compiled executor raises too"
    (Invalid_argument "Sim_run: next_failure returned NaN") (fun () ->
      ignore
        (Sim_run.run_plan ~downtime:0.5 (Sim_run.tally ()) (make_stream ())
           (Sim_run.compile segments)))

let test_run_plan_allocation_flat () =
  (* No allocation per segment: a failure-free run of 10,000 segments
     allocates as many minor words as one of 10. *)
  let words n =
    let plan =
      Sim_run.compile
        (List.init n (fun i ->
             seg ~work:(1.0 +. float_of_int i) ~checkpoint:0.5 ~recovery:0.25))
    in
    let tally = Sim_run.tally () in
    ignore (Sim_run.run_plan ~downtime:1.0 tally (Failure_stream.of_times [||]) plan);
    let stream = Failure_stream.of_times [||] in
    let before = Gc.minor_words () in
    ignore (Sim_run.run_plan ~downtime:1.0 tally stream plan);
    Gc.minor_words () -. before
  in
  let w10 = words 10 and w10k = words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words at 10 segments, %.0f at 10,000" w10 w10k)
    true (Float.equal w10 w10k)

(* --- One campaign pinned to history ---------------------------------- *)

(* The oracle tests compare the two executors with each other, so a
   change that reorders the arithmetic of both, or of Failure_stream or
   Welford, passes them unnoticed. This campaign cannot: the every-task
   and every-8th-task plans of a seeded 100-task chain, 4,096 Poisson
   runs each (about two failures per run), recorded before run_plan
   walked failure-free segments in an inner loop. A change to these
   values is a change of results and must be explained, not
   re-recorded. *)
let history_lambda = 1.5e-3
let history_downtime = 5.0

let history_segments k =
  let rng = Rng.substream (Rng.create ~seed:1912L) "history" in
  let tasks =
    List.init 100 (fun id ->
        let work = Rng.float_range rng 5.0 15.0 in
        let checkpoint_cost = Rng.float_range rng 1.0 5.0 in
        let recovery_cost = Rng.float_range rng 1.0 5.0 in
        Task.make ~id ~work ~checkpoint_cost ~recovery_cost ())
  in
  let problem =
    Ckpt_core.Chain_problem.make ~downtime:history_downtime ~initial_recovery:3.0
      ~lambda:history_lambda tasks
  in
  Ckpt_core.Schedule.to_sim_segments (Ckpt_core.Schedule.every_k problem k)

let history =
  [
    ( 1,
      "mean 0x1.42c6560effdb4p+10, stddev 0x1.52fe087754bb1p+4, min 0x1.3bbd029fcb646p+10, \
       max 0x1.5a51621fa7d46p+10",
      [
        ("sim.checkpoints", "409600");
        ("sim.failures", "7969");
        ("sim.failures_per_run", "623,1111,1072,1233,57,0,0,0,0 / 0x1.f21p+12 / 4096");
        ("sim.lost_time", "0x1.9c9860897ec4dp+15");
        ("sim.lost_work", "0x1.84e4cac287148p+15");
      ] );
    ( 8,
      "mean 0x1.0e44cedd27e14p+10, stddev 0x1.10c8a9c878098p+6, min 0x1.f74012d7668f8p+9, \
       max 0x1.6dc4d3b91e20fp+10",
      [
        ("sim.checkpoints", "53248");
        ("sim.failures", "6621");
        ("sim.failures_per_run", "892,1275,1014,873,42,0,0,0,0 / 0x1.9ddp+12 / 4096");
        ("sim.lost_time", "0x1.f1cb7e1293f44p+17");
        ("sim.lost_work", "0x1.f10829c1ab7a4p+17");
      ] );
  ]

let test_campaign_pinned () =
  List.iter
    (fun (k, expected_estimate, expected_rows) ->
      let segments = history_segments k in
      List.iter
        (fun domains ->
          let collector = Metrics.create_collector () in
          let e =
            Metrics.with_collector collector (fun () ->
                Monte_carlo.estimate_segments ~domains
                  ~model:(Monte_carlo.Poisson_rate history_lambda) ~downtime:history_downtime
                  ~runs:4096 ~rng:(Rng.create ~seed:(Int64.of_int k)) segments)
          in
          let name = Printf.sprintf "every-%d on %d domains" k domains in
          let estimate =
            Printf.sprintf "mean %h, stddev %h, min %h, max %h" e.Monte_carlo.mean
              e.Monte_carlo.stddev e.Monte_carlo.min e.Monte_carlo.max
          in
          Alcotest.(check string) (name ^ ": estimate") expected_estimate estimate;
          Alcotest.(check (list (pair string string)))
            (name ^ ": sim.* rows") expected_rows (sim_rows collector))
        [ 1; 3 ])
    history

(* The adaptive path, as mc-sweep runs it: the every-8 plan in rounds
   starting at runs 64, 128, 256, ..., 2048. The target is out of reach,
   so all seven rounds run. Recorded before run_plan tallied a batch and
   flushed it once. With a 64-run first round every round boundary lies
   on the batch grid, and the values equal the fixed-size campaign's
   above; a 100-run first round moves sim.lost_time's last bit. *)
let test_adaptive_campaign_pinned () =
  let segments = history_segments 8 in
  List.iter
    (fun domains ->
      let collector = Metrics.create_collector () in
      let e =
        Metrics.with_collector collector (fun () ->
            Monte_carlo.estimate_segments ~domains ~target_ci:1e-9 ~max_runs:4096
              ~model:(Monte_carlo.Poisson_rate history_lambda) ~downtime:history_downtime
              ~runs:64 ~rng:(Rng.create ~seed:8L) segments)
      in
      let name = Printf.sprintf "adaptive every-8 on %d domains" domains in
      Alcotest.(check int) (name ^ ": runs") 4096 e.Monte_carlo.runs;
      Alcotest.(check string) (name ^ ": estimate")
        "mean 0x1.0e44cedd27e14p+10, stddev 0x1.10c8a9c878098p+6, min 0x1.f74012d7668f8p+9, \
         max 0x1.6dc4d3b91e20fp+10"
        (Printf.sprintf "mean %h, stddev %h, min %h, max %h" e.Monte_carlo.mean
           e.Monte_carlo.stddev e.Monte_carlo.min e.Monte_carlo.max);
      Alcotest.(check (list (pair string string)))
        (name ^ ": sim.* rows")
        [
          ("sim.checkpoints", "53248");
          ("sim.failures", "6621");
          ("sim.failures_per_run", "892,1275,1014,873,42,0,0,0,0 / 0x1.9ddp+12 / 4096");
          ("sim.lost_time", "0x1.f1cb7e1293f44p+17");
          ("sim.lost_work", "0x1.f10829c1ab7a4p+17");
        ]
        (sim_rows collector))
    [ 1; 3 ]

(* --- command-line tools on bad input ------------------------------------ *)

(* A file of the build tree, found from its test directory: the bin/
   executables are dependencies of this test, as are the example specs. *)
let build_path dir file = Filename.concat (Filename.concat Filename.parent_dir_name dir) file

(* Every [args] row must exit 2 with one line on stderr and nothing on
   stdout. *)
let rejects_bad_input exe rows =
  let exe = build_path "bin" exe in
  if not (Sys.file_exists exe) then Alcotest.skip ();
  let out = Filename.temp_file "ckpt_cli" ".out" and err = Filename.temp_file "ckpt_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
                 (Filename.quote out) (Filename.quote err))
          in
          let read path = In_channel.with_open_bin path In_channel.input_all in
          let label = Filename.basename exe ^ " " ^ args in
          Alcotest.(check int) (label ^ ": exit 2") 2 code;
          Alcotest.(check string) (label ^ ": nothing on stdout") "" (read out);
          let message = read err in
          Alcotest.(check bool)
            (Printf.sprintf "%s: one line on stderr, %S" label message)
            true
            (String.length message > 1
            && String.index message '\n' = String.length message - 1))
        rows)

let test_ckpt_sim_bad_input () =
  (* Each of these used to end in an uncaught exception (exit 125), or
     for exp:0 in a Livelock after 10^7 failures. *)
  rejects_bad_input "ckpt_sim.exe"
    [ "--runs 0"; "--domains 0"; "-p 0"; "--target-ci 0"; "--checkpoint nan"; "--work=-1";
      "--recovery=-2"; "--downtime nan"; "--law exp:0"; "--law weibull:nan:1000";
      "--law lognormal:nan:1000"; "--law gamma:2:inf"; "--law uniform:0:inf" ]

let test_tools_bad_input () =
  (* Each tool validates before it prints: no row may exit 125 on an
     uncaught exception, leave part of a report on stdout, print an
     infinite makespan for an infinite λ, or run out of memory on a
     NaN or infinite horizon. *)
  let chain = Filename.quote (build_path "examples" "specs/seismic.chain") in
  let dag = Filename.quote (build_path "examples" "specs/diamond.dag") in
  let snapshot = Filename.temp_file "ckpt_cli" ".json" in
  let config = Filename.temp_file "ckpt_cli" ".toml" in
  let log = Filename.temp_file "ckpt_cli" ".log" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ snapshot; config; log ])
    (fun () ->
      Out_channel.with_open_bin snapshot (fun oc ->
          output_string oc {|{"metrics":{"mc.runs":1},"timings":{}}|});
      Out_channel.with_open_bin config (fun oc -> output_string oc "max_regression = 0.1\n");
      let log = Filename.quote log and snapshot = Filename.quote snapshot in
      rejects_bad_input "ckpt_trace.exe"
        (List.map
           (fun flag -> Printf.sprintf "generate %s -o %s" flag log)
           [ "--nodes 0"; "--horizon 0"; "--horizon nan"; "--horizon inf";
             "--heterogeneity nan" ]);
      rejects_bad_input "ckpt_dag.exe"
        (List.map (fun flags -> dag ^ " " ^ flags)
           [ "--lambda 0"; "--lambda nan"; "--lambda inf"; "--lambda 0.01 --downtime=-1" ]);
      rejects_bad_input "ckpt_chain.exe" [ chain ^ " --lambda inf" ];
      rejects_bad_input "ckpt_report.exe" [ chain ^ " -n 0"; chain ^ " --lambda inf" ];
      rejects_bad_input "ckpt_experiments.exe"
        [ "--quick --domains 0 E1"; "--quick --target-ci 0 E1"; "--quick --target-ci nan E1";
          "E99" ];
      rejects_bad_input "ckpt_obs_tool.exe"
        (List.map
           (fun flags -> Printf.sprintf "diff %s %s %s" snapshot snapshot flags)
           [ "--max-change nan"; "--max-change=-1"; "--config " ^ Filename.quote config ]))


let test_trace_inspect_malformed () =
  (* Malformed cluster logs used to exit 125: a negative node count
     (Array.init), a NaN time (Trace.of_times, after loading) and a
     non-numeric time (a bare float_of_string). A claimed 10^6 nodes
     over one node line must be reported, not allocated. *)
  let header = "# ckpt-workflows cluster log v1\nhorizon 100\ndescription x\n" in
  let logs =
    List.map
      (fun body ->
        let path = Filename.temp_file "ckpt_cli" ".log" in
        Out_channel.with_open_bin path (fun oc -> output_string oc (header ^ body));
        path)
      [ "nodes -3\n"; "nodes 1\nnode 0 1 nan\n"; "nodes 1\nnode 0 1 abc\n";
        "nodes 1000000\nnode 0 1 2.5\n" ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove logs)
    (fun () ->
      rejects_bad_input "ckpt_trace.exe"
        (List.map (fun path -> "inspect " ^ Filename.quote path) logs))
let suite =
  [
    Alcotest.test_case "failure-free run" `Quick test_no_failure;
    Alcotest.test_case "compiled executor = oracle" `Quick test_run_plan_matches_oracle;
    Alcotest.test_case "compiled executor rejects NaN" `Quick test_run_plan_nan_rejected;
    Alcotest.test_case "compiled executor allocation" `Quick test_run_plan_allocation_flat;
    Alcotest.test_case "compiled executor = oracle (long plans)" `Quick
      test_run_plan_long_plans;
    Alcotest.test_case "compiled executor = oracle (unvalidated segment)" `Quick
      test_run_plan_unvalidated_segment;
    Alcotest.test_case "compiled executor = oracle (one tally, many runs)" `Quick
      test_run_plan_one_tally_many_runs;
    Alcotest.test_case "campaign pinned to history" `Quick test_campaign_pinned;
    Alcotest.test_case "adaptive campaign pinned to history" `Quick
      test_adaptive_campaign_pinned;
    Alcotest.test_case "lost-work/lost-time split (segments)" `Quick
      test_lost_accounting_segments;
    Alcotest.test_case "lost-work/lost-time split (chain)" `Quick
      test_lost_accounting_chain;
    Alcotest.test_case "degenerate segments terminate" `Quick
      test_degenerate_segments_terminate;
    Alcotest.test_case "on_phase hook order" `Quick test_on_phase_hook_order;
    Alcotest.test_case "chain executor event log" `Quick test_chain_emits_events;
    Alcotest.test_case "NaN failure time rejected" `Quick test_nan_failure_time_rejected;
    Alcotest.test_case "livelock guard" `Quick test_livelock_guard;
    Alcotest.test_case "distribution collection" `Quick test_collect_distribution;
    Alcotest.test_case "failure during work" `Quick test_failure_during_work;
    Alcotest.test_case "failure during checkpoint" `Quick test_failure_during_checkpoint;
    Alcotest.test_case "failure during recovery" `Quick test_failure_during_recovery;
    Alcotest.test_case "failure during downtime ignored" `Quick
      test_failure_during_downtime_ignored;
    Alcotest.test_case "multi-segment rollback scope" `Quick test_multi_segment_rollback_scope;
    Alcotest.test_case "boundary failure" `Quick test_boundary_failure_counts_as_success;
    Alcotest.test_case "zero downtime" `Quick test_zero_downtime;
    Alcotest.test_case "policy executor = segment executor" `Quick
      test_chain_policy_matches_segments;
    QCheck_alcotest.to_alcotest qcheck_policy_equals_segments;
    Alcotest.test_case "policy context fields" `Quick test_context_fields;
    Alcotest.test_case "failure count matches formula" `Slow
      test_failure_count_matches_formula;
    Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
    Alcotest.test_case "traced events (scripted)" `Quick test_traced_events;
    Alcotest.test_case "traced run consistency" `Quick test_traced_consistency_with_plain;
    Alcotest.test_case "Monte-Carlo matches Prop 1" `Slow test_monte_carlo_matches_prop1;
    Alcotest.test_case "parallel = sequential Monte-Carlo" `Slow
      test_parallel_monte_carlo_agrees;
    Alcotest.test_case "Monte-Carlo reproducibility" `Quick test_monte_carlo_reproducible;
    Alcotest.test_case "trace-driven run" `Quick test_run_on_trace;
    Alcotest.test_case "ckpt-sim rejects bad input" `Quick test_ckpt_sim_bad_input;
    Alcotest.test_case "command-line tools reject bad input" `Quick test_tools_bad_input;
    Alcotest.test_case "ckpt-trace inspect rejects malformed logs" `Quick
      test_trace_inspect_malformed;
  ]
