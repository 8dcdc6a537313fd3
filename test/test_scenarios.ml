(* Tests for the deterministic fault-scenario harness: registry
   reproducibility, monitors passing on the honest engine, and each
   monitor firing on a deliberately broken (mutant) event stream. *)

module Scenario = Ckpt_scenarios.Scenario
module Monitor = Ckpt_scenarios.Monitor
module Sim_run = Ckpt_sim.Sim_run

let test_registry_shape () =
  Alcotest.(check bool) "at least 6 scenarios" true (List.length Scenario.all >= 6);
  let names = Scenario.names () in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n ->
      match Scenario.find n with
      | Some s -> Alcotest.(check string) "find round-trips" n s.Scenario.name
      | None -> Alcotest.failf "scenario %S not found by name" n)
    names;
  Alcotest.(check bool) "unknown name" true (Scenario.find "no-such-scenario" = None)

let test_reproducible_digests () =
  List.iter
    (fun s ->
      let o1 = Scenario.run s ~seed:123L in
      let o2 = Scenario.run s ~seed:123L in
      Alcotest.(check string)
        (s.Scenario.name ^ " digest reproduces")
        o1.Scenario.digest o2.Scenario.digest;
      Alcotest.(check bool)
        (s.Scenario.name ^ " event streams identical")
        true
        (o1.Scenario.events = o2.Scenario.events);
      Alcotest.(check bool)
        (s.Scenario.name ^ " stats identical")
        true
        (Float.equal o1.Scenario.stats.Sim_run.makespan o2.Scenario.stats.Sim_run.makespan
        && o1.Scenario.stats.Sim_run.failures = o2.Scenario.stats.Sim_run.failures))
    Scenario.all

(* Regression pin: the exact digests of two scenarios at a fixed seed.
   A change here means the engine's observable behaviour changed —
   deliberate changes must update the pins (and the bug-report
   reproduction contract with them). *)
let test_pinned_digests () =
  let expect name seed =
    match Scenario.find name with
    | None -> Alcotest.failf "scenario %S missing" name
    | Some s -> (Scenario.run s ~seed).Scenario.digest
  in
  Alcotest.(check string) "baseline-exp pinned" "a9e894e2b72a59447d69aab0a32f9192"
    (expect "baseline-exp" 7L);
  Alcotest.(check string) "chain-periodic-policy pinned"
    "28cadb6d4e1e6e0d61b0101253bea7aa"
    (expect "chain-periodic-policy" 7L);
  (* Cross-seed digests differ (the seed is part of the digested
     transcript, and so is the failure pattern). *)
  Alcotest.(check bool) "digests differ across seeds" true
    (not (String.equal (expect "baseline-exp" 7L) (expect "baseline-exp" 8L)))

(* Every scenario pinned at seed 42, the CI smoke seed: the segment
   scenarios and both chain scenarios run on the one hooked executor. *)
let test_pinned_digests_seed_42 () =
  List.iter
    (fun (name, digest) ->
      match Scenario.find name with
      | None -> Alcotest.failf "scenario %S missing" name
      | Some s ->
          Alcotest.(check string) (name ^ " pinned") digest
            (Scenario.run s ~seed:42L).Scenario.digest)
    [
      ("baseline-exp", "6da3699b28564f06b8d05b583ec336c6");
      ("renewal-weibull", "bc7543cb37c6067d4dd54186a343f429");
      ("cascading-aftershocks", "6928d40d2b5a6da01971728a426b3f94");
      ("ckpt-io-hazard", "b59cac4466d2aa3847880c4a34b6ec0d");
      ("transient-masked", "99dc27c7634750b58f03781377bdb9f2");
      ("drifting-hazard", "d0fcecc8c16f565b3cd32fc3f7e9a5ad");
      ("replay-tie-burst", "753ce17cdf96af2cad0cc8dd50fcc080");
      ("merged-phase-chain", "fcbc70a88d4ce71f106c99eea7c7939d");
      ("chain-periodic-policy", "e58fb05fd320b4107c59f9b46fd2512f");
    ];
  Alcotest.(check int) "every registered scenario is pinned" 9 (List.length Scenario.all)

let test_honest_engine_passes_monitors () =
  (* Every scenario, a sweep of seeds: the honest engine must never trip
     a monitor, whatever the fault pattern. *)
  List.iter
    (fun s ->
      for seed = 1 to 25 do
        let o = Scenario.run s ~seed:(Int64.of_int seed) in
        if not (Monitor.ok o.Scenario.verdicts) then begin
          List.iter
            (fun (v : Monitor.verdict) ->
              List.iter
                (fun (x : Monitor.violation) ->
                  Printf.eprintf "%s seed=%d t=%g %s: %s\n" s.Scenario.name seed x.time
                    x.monitor x.message)
                v.examples)
            o.Scenario.verdicts;
          Alcotest.failf "%s seed=%d: %d monitor violation(s)" s.Scenario.name seed
            (Monitor.total_violations o.Scenario.verdicts)
        end;
        Alcotest.(check int)
          (s.Scenario.name ^ " all five monitors report")
          5
          (List.length o.Scenario.verdicts)
      done)
    Scenario.all

let test_scenarios_see_failures () =
  (* The registry must actually exercise failure paths: over a seed
     sweep, every scenario endures at least one failure somewhere. *)
  List.iter
    (fun s ->
      let total = ref 0 in
      for seed = 1 to 25 do
        let o = Scenario.run s ~seed:(Int64.of_int seed) in
        total := !total + o.Scenario.stats.Sim_run.failures
      done;
      Alcotest.(check bool) (s.Scenario.name ^ " endures failures") true (!total > 0))
    Scenario.all

(* {1 Mutant streams: each monitor must fire on its broken input} *)

let spec =
  {
    Monitor.downtime = 1.0;
    lower_bound = 22.0;
    expected =
      (fun i ->
        if i >= 0 && i < 2 then Some (Sim_run.segment ~work:10.0 ~checkpoint:1.0 ~recovery:2.0)
        else None);
  }

let event phase segment start finish interrupted =
  { Sim_run.phase; segment; start; finish; interrupted }

let honest_events =
  [
    event Sim_run.Work_phase 0 0.0 10.0 false;
    event Sim_run.Checkpoint_phase 0 10.0 11.0 false;
    event Sim_run.Work_phase 1 11.0 21.0 false;
    event Sim_run.Checkpoint_phase 1 21.0 22.0 false;
  ]

let verdicts_of ?(makespan = 22.0) events =
  let m = Monitor.create spec in
  List.iter (Monitor.on_event m) events;
  Monitor.finalize m ~makespan

let violations_of name verdicts =
  match List.find_opt (fun (v : Monitor.verdict) -> String.equal v.monitor name) verdicts with
  | Some v -> v.Monitor.violations
  | None -> Alcotest.failf "monitor %S missing from verdicts" name

let test_honest_stream_clean () =
  let verdicts = verdicts_of honest_events in
  Alcotest.(check bool) "honest stream passes all monitors" true (Monitor.ok verdicts);
  Alcotest.(check int) "no violations" 0 (Monitor.total_violations verdicts)

let test_mutant_time_travel () =
  (* Second event starts before the first finished. *)
  let events =
    [
      event Sim_run.Work_phase 0 0.0 10.0 false;
      event Sim_run.Checkpoint_phase 0 9.0 10.0 false;
      event Sim_run.Work_phase 1 10.0 20.0 false;
      event Sim_run.Checkpoint_phase 1 20.0 22.0 false;
    ]
  in
  let verdicts = verdicts_of events in
  Alcotest.(check bool) "monotone-timeline fires" true
    (violations_of "monotone-timeline" verdicts > 0)

let test_mutant_backwards_event () =
  let events = [ event Sim_run.Work_phase 0 10.0 4.0 true ] in
  Alcotest.(check bool) "backwards event caught" true
    (violations_of "monotone-timeline" (verdicts_of ~makespan:10.0 events) > 0)

let test_mutant_nan_timestamp () =
  let events = [ event Sim_run.Work_phase 0 0.0 Float.nan true ] in
  Alcotest.(check bool) "NaN timestamp caught" true
    (violations_of "monotone-timeline" (verdicts_of ~makespan:22.0 events) > 0)

let test_mutant_lost_checkpoint () =
  (* Segment 0 commits, then the engine re-executes it: committed
     progress was lost. *)
  let events =
    [
      event Sim_run.Work_phase 0 0.0 10.0 false;
      event Sim_run.Checkpoint_phase 0 10.0 11.0 false;
      event Sim_run.Work_phase 0 11.0 21.0 false;
      event Sim_run.Checkpoint_phase 1 21.0 22.0 false;
    ]
  in
  Alcotest.(check bool) "committed-progress fires" true
    (violations_of "committed-progress" (verdicts_of honest_events) = 0
    && violations_of "committed-progress" (verdicts_of events) > 0)

let test_mutant_work_inflation () =
  (* Completed work phase runs longer than the declared work. *)
  let events =
    [
      event Sim_run.Work_phase 0 0.0 12.5 false;
      event Sim_run.Checkpoint_phase 0 12.5 13.5 false;
      event Sim_run.Work_phase 1 13.5 23.5 false;
      event Sim_run.Checkpoint_phase 1 23.5 24.5 false;
    ]
  in
  Alcotest.(check bool) "work-conservation fires" true
    (violations_of "work-conservation" (verdicts_of ~makespan:24.5 events) > 0)

let test_mutant_unfinished_work () =
  (* A segment starts (interrupted) but its work never completes before
     the run ends. *)
  let events =
    [
      event Sim_run.Work_phase 0 0.0 10.0 false;
      event Sim_run.Checkpoint_phase 0 10.0 11.0 false;
      event Sim_run.Work_phase 1 11.0 15.0 true;
    ]
  in
  Alcotest.(check bool) "unfinished work caught" true
    (violations_of "work-conservation" (verdicts_of ~makespan:15.0 events) > 0)

let test_mutant_short_makespan () =
  (* An engine reporting a makespan below the failure-free lower bound
     (it "lost" a checkpoint cost). *)
  let events =
    [
      event Sim_run.Work_phase 0 0.0 10.0 false;
      event Sim_run.Checkpoint_phase 0 10.0 11.0 false;
      event Sim_run.Work_phase 1 11.0 21.0 false;
    ]
  in
  Alcotest.(check bool) "makespan-bound fires" true
    (violations_of "makespan-bound" (verdicts_of ~makespan:21.0 events) > 0)

let test_mutant_interrupted_downtime () =
  let events =
    [
      event Sim_run.Work_phase 0 0.0 5.0 true;
      event Sim_run.Downtime_phase 0 5.0 5.4 true;
      event Sim_run.Recovery_phase 0 5.4 7.4 false;
      event Sim_run.Work_phase 0 7.4 17.4 false;
      event Sim_run.Checkpoint_phase 0 17.4 18.4 false;
      event Sim_run.Work_phase 1 18.4 28.4 false;
      event Sim_run.Checkpoint_phase 1 28.4 29.4 false;
    ]
  in
  let verdicts = verdicts_of ~makespan:29.4 events in
  Alcotest.(check bool) "downtime-immunity fires" true
    (violations_of "downtime-immunity" verdicts > 0);
  (* The truncated downtime window also breaks work-conservation. *)
  Alcotest.(check bool) "window length checked too" true
    (violations_of "work-conservation" verdicts > 0)

let test_monitor_verdict_bookkeeping () =
  (* An honest run including a failure cycle, so every monitor
     (downtime-immunity included) performs at least one check. *)
  let verdicts =
    verdicts_of ~makespan:30.0
      [
        event Sim_run.Work_phase 0 0.0 5.0 true;
        event Sim_run.Downtime_phase 0 5.0 6.0 false;
        event Sim_run.Recovery_phase 0 6.0 8.0 false;
        event Sim_run.Work_phase 0 8.0 18.0 false;
        event Sim_run.Checkpoint_phase 0 18.0 19.0 false;
        event Sim_run.Work_phase 1 19.0 29.0 false;
        event Sim_run.Checkpoint_phase 1 29.0 30.0 false;
      ]
  in
  Alcotest.(check bool) "honest failure cycle is clean" true (Monitor.ok verdicts);
  Alcotest.(check (list string)) "verdict order = monitor_names" Monitor.monitor_names
    (List.map (fun (v : Monitor.verdict) -> v.Monitor.monitor) verdicts);
  List.iter
    (fun (v : Monitor.verdict) ->
      Alcotest.(check bool) (v.Monitor.monitor ^ " performed checks") true
        (v.Monitor.checks > 0))
    verdicts

(* {1 Coverage counters} *)

let test_coverage_sweep_completes () =
  (* The acceptance bar: every registered cov.* branch (injector
     combinator arms, monitor outcomes) fires within the default seed
     budget — in practice within a couple of seeds. *)
  let o =
    Ckpt_scenarios.Coverage.sweep ~scenarios:Scenario.all ~seed:42L ()
  in
  if not (Ckpt_scenarios.Coverage.complete o) then
    Alcotest.failf "uncovered after %d seeds: %s" o.Ckpt_scenarios.Coverage.seeds_used
      (String.concat ", " o.Ckpt_scenarios.Coverage.uncovered);
  Alcotest.(check bool) "a real universe was measured" true
    (List.length o.Ckpt_scenarios.Coverage.covered >= 10);
  Alcotest.(check bool) "well within the default budget" true
    (o.Ckpt_scenarios.Coverage.seeds_used <= 8);
  (* Both injector-branch and monitor-outcome counters are present. *)
  let names = List.map fst o.Ckpt_scenarios.Coverage.covered in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " registered") true (List.mem expected names))
    [
      "cov.injector.merge.left"; "cov.injector.masked.masked";
      "cov.injector.aftershock.spawned"; "cov.injector.nhpp.accept";
      "cov.injector.phase.pending"; "cov.monitor.monotone-timeline.pass";
    ]
(* No assertion on .violation counters here: they register lazily on
   first fire, and the mutant-stream tests above deliberately fire them
   in this very process. The fresh-process guarantee — an honest run
   registers no .violation keys, so 100% stays reachable — is what
   `ckpt-sim --scenario all --coverage` exercises in CI. *)

let test_coverage_counters_deterministic () =
  (* cov.* counters are Engine-kind: a scenario replayed at the same
     seed must add exactly the same counts. *)
  let s =
    match Scenario.find "merged-phase-chain" with
    | Some s -> s
    | None -> Alcotest.fail "merged-phase-chain not registered"
  in
  let delta () =
    let before = Ckpt_scenarios.Coverage.counters () in
    ignore (Scenario.run s ~seed:99L);
    List.filter_map
      (fun (n, c) ->
        let b = match List.assoc_opt n before with Some b -> b | None -> 0 in
        if c - b > 0 then Some (n, c - b) else None)
      (Ckpt_scenarios.Coverage.counters ())
  in
  let d1 = delta () in
  let d2 = delta () in
  Alcotest.(check bool) "replay adds identical branch counts" true (d1 = d2);
  Alcotest.(check bool) "the merge scenario drives the merge combinator" true
    (List.mem_assoc "cov.injector.merge.left" d1
    || List.mem_assoc "cov.injector.merge.right" d1)

let test_spec_of_workload_chain_bound () =
  (* The chain lower bound counts every periodic checkpoint plus the
     forced final one. *)
  let tasks =
    Array.init 4 (fun i ->
        Ckpt_dag.Task.make ~id:i ~work:5.0 ~checkpoint_cost:1.0 ~recovery_cost:1.0 ())
  in
  let spec =
    Scenario.spec_of_workload
      (Scenario.Chain { tasks; initial_recovery = 0.5; downtime = 1.0; period = 2 })
  in
  (* work 4*5 + checkpoints after tasks 1 and 3 (the last is forced). *)
  Alcotest.(check (float 1e-9)) "chain lower bound" 22.0 spec.Monitor.lower_bound;
  (match spec.Monitor.expected 0 with
  | Some seg ->
      Alcotest.(check (float 1e-9)) "first recovery is initial" 0.5 seg.Sim_run.recovery
  | None -> Alcotest.fail "expected 0 missing");
  (match spec.Monitor.expected 2 with
  | Some seg ->
      Alcotest.(check (float 1e-9)) "later recovery from previous task" 1.0
        seg.Sim_run.recovery
  | None -> Alcotest.fail "expected 2 missing");
  Alcotest.(check bool) "out of range is None" true (spec.Monitor.expected 4 = None)

let suite =
  [
    Alcotest.test_case "registry shape" `Quick test_registry_shape;
    Alcotest.test_case "digests reproduce" `Quick test_reproducible_digests;
    Alcotest.test_case "digest seed sensitivity" `Quick test_pinned_digests;
    Alcotest.test_case "digests pinned at seed 42" `Quick test_pinned_digests_seed_42;
    Alcotest.test_case "honest engine passes monitors" `Slow
      test_honest_engine_passes_monitors;
    Alcotest.test_case "scenarios endure failures" `Slow test_scenarios_see_failures;
    Alcotest.test_case "honest stream clean" `Quick test_honest_stream_clean;
    Alcotest.test_case "mutant: time travel" `Quick test_mutant_time_travel;
    Alcotest.test_case "mutant: backwards event" `Quick test_mutant_backwards_event;
    Alcotest.test_case "mutant: NaN timestamp" `Quick test_mutant_nan_timestamp;
    Alcotest.test_case "mutant: lost checkpoint" `Quick test_mutant_lost_checkpoint;
    Alcotest.test_case "mutant: work inflation" `Quick test_mutant_work_inflation;
    Alcotest.test_case "mutant: unfinished work" `Quick test_mutant_unfinished_work;
    Alcotest.test_case "mutant: short makespan" `Quick test_mutant_short_makespan;
    Alcotest.test_case "mutant: interrupted downtime" `Quick
      test_mutant_interrupted_downtime;
    Alcotest.test_case "verdict bookkeeping" `Quick test_monitor_verdict_bookkeeping;
    Alcotest.test_case "coverage sweep reaches 100%" `Quick test_coverage_sweep_completes;
    Alcotest.test_case "coverage counters deterministic" `Quick
      test_coverage_counters_deterministic;
    Alcotest.test_case "chain workload spec" `Quick test_spec_of_workload_chain_bound;
  ]
