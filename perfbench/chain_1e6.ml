(* chain-1e6: one seeded, uniform-cost chain of 10^6 tasks, planned end
   to end through the public solver path
   Chain_problem.make -> Chain_dp.solve_smawk -> Schedule.checkpoint_indices.

   The chain is generated directly as a Task.t list (task weights drawn
   from the seed, one checkpoint and one recovery cost for every task),
   not through a 10^6-node DAG. Set-up is one untimed warm-up plan;
   the timed plans follow, each after a full major collection so every
   plan starts from a settled heap. *)

module Rng = Ckpt_prng.Rng
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Segment_cost = Ckpt_core.Segment_cost
module Clock = Ckpt_obs.Clock

let n = 1_000_000
let checkpoint = 2.0
let recovery = 2.0
let downtime = 1.0
let lambda = 1e-5

(* Set-up is repeated and its median reported; at least [min_plans]
   timed plans are made however short the window. *)
let setups = 5
let min_plans = 3

(* Makespan ([%.17g]) and indices digest of the plan for some seeds, as
   the code at the commit that introduced this benchmark computes them.
   Other seeds are checked against the divide-and-conquer solver. *)
let pinned =
  [
    (1, ("2012379.23188727", "edc650391f5653ac4719554bdbd36ff9"));
    (2, ("2013044.7203014463", "c14fc73ba7ef544d0c14c41485333612"));
    (3, ("2012630.9175155198", "3ee8d9a83281914328a19cbaa3426dbc"));
    (4, ("2013200.7763780972", "83a50c282c0ac01b30918ad609f1d802"));
    (5, ("2013678.3257553766", "2673c68a014564063f8320a9b7d59893"));
    (6, ("2012767.3995302916", "54ac9cd9e3651c3bed615166682e760f"));
    (7, ("2013181.6620963698", "162ab7a601cbffc69b9af3e5a28161bb"));
    (8, ("2013971.4057920813", "1fc395d37af67fb07a516cd6221bb951"));
    (9, ("2012276.8247886954", "10334d0c738373b0dbe51ea8d83b421c"));
    (10, ("2012259.4379361426", "155126b6ee01827c91f3c0afa1bfb32d"));
    (424242, ("2013523.4349371837", "405804580a0a3b6db0c86f7d3cd2d307"));
  ]

let tasks ~seed =
  let rng = Rng.substream (Rng.create ~seed:(Int64.of_int seed)) "chain-1e6" in
  List.init n (fun i ->
      Task.make ~id:i ~work:(Rng.float_range rng 1.0 3.0) ~checkpoint_cost:checkpoint
        ~recovery_cost:recovery ())

let problem tasks = Chain_problem.make ~downtime ~initial_recovery:recovery ~lambda tasks

type plan = { makespan : float; indices : int list }

let plan tasks =
  let solution = Chain_dp.solve_smawk (problem tasks) in
  { makespan = solution.Chain_dp.expected_makespan;
    indices = Schedule.checkpoint_indices solution.Chain_dp.schedule }

let digest indices = Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int indices)))

let timed_plan tasks =
  Gc.full_major ();
  Clock.time (fun () -> plan tasks)

(* Plans until the window is over and at least [min_plans] are made. *)
let window ~seconds f =
  let t0 = Clock.now_ns () in
  let rec go acc =
    if List.length acc >= min_plans && Clock.elapsed_s t0 >= seconds then List.rev acc
    else go (f () :: acc)
  in
  go []

(* One plan with every layer call in its own span (the spans give the
   times), and the counts the per-layer metrics need. *)
type traced = {
  transitions : int;
  solve_minor_words : float;
  minor_words : float;
  major_collections : int;
  result : plan;
}

let traced_plan tasks =
  Gc.full_major ();
  let major0 = Tracing.major_collections () and words0 = Tracing.minor_words () in
  let transitions0 = Tracing.counter "dp.smawk_transitions" in
  let result, solve_minor_words =
    Tracing.root "chain-1e6.plan" (fun () ->
        let p = Tracing.layer "chain_problem.make" (fun () -> problem tasks) in
        if
          not
            (Tracing.layer "segment_cost.certificate" (fun () ->
                 Segment_cost.supports_monotone_dc (Chain_problem.kernel p)))
        then failwith "chain-1e6: SMAWK certificate failed on a uniform-cost chain";
        let w0 = Tracing.minor_words () in
        let solution = Tracing.layer "chain_dp.solve_smawk" (fun () -> Chain_dp.solve_smawk ~verify:false p) in
        let words = Tracing.minor_words () -. w0 in
        let indices =
          Tracing.layer "schedule.checkpoint_indices" (fun () ->
              Schedule.checkpoint_indices solution.Chain_dp.schedule)
        in
        ({ makespan = solution.Chain_dp.expected_makespan; indices }, words))
  in
  {
    transitions = Tracing.counter "dp.smawk_transitions" - transitions0;
    solve_minor_words;
    minor_words = Tracing.minor_words () -. words0;
    major_collections = Tracing.major_collections () - major0;
    result;
  }

let check_result report ~seed reference plans =
  Report.check report "chain-1e6 plans agree run to run"
    (List.for_all (fun p -> Float.equal p.makespan reference.makespan && p.indices = reference.indices) plans);
  let d = digest reference.indices in
  Report.note "chain-1e6 seed %d: makespan %.17g, %d checkpoints, indices digest %s" seed
    reference.makespan (List.length reference.indices) d;
  match List.assoc_opt seed pinned with
  | Some (makespan, pinned_digest) ->
      Report.check report "chain-1e6 makespan and indices digest match the pinned values"
        (Printf.sprintf "%.17g" reference.makespan = makespan && d = pinned_digest)
  | None ->
      let oracle = Chain_dp.solve_dc (problem (tasks ~seed)) in
      Report.check report "chain-1e6 plan equals the divide-and-conquer solver's"
        (Float.equal oracle.Chain_dp.expected_makespan reference.makespan
        && Schedule.checkpoint_indices oracle.Chain_dp.schedule = reference.indices)

let run report ~seed ~seconds ~trace =
  let tasks = tasks ~seed in
  let setup = Array.init setups (fun _ -> fst (timed_plan tasks)) in
  let untraced_window = if trace then seconds /. 2.0 else seconds in
  let runs = window ~seconds:untraced_window (fun () -> timed_plan tasks) in
  Report.attempt ~n:(List.length runs + setups) report;
  let times = Array.of_list (List.map fst runs) in
  let p50 = Percentile.median_of times in
  let best = Array.fold_left Float.min Float.infinity times in
  Report.note "chain-1e6: %d tasks, %d timed plans, %d set-up plans" n (Array.length times) setups;
  (* The fastest plan of the window: on a shared machine the median
     moves with other tenants' load, the fastest plan far less. *)
  Report.end_to_end report "op_time_ms" ~unit:"ms" (best *. 1e3);
  Report.end_to_end report "goodput_per_s" ~unit:"1/s" (1.0 /. best);
  Report.end_to_end report "setup_s" ~unit:"s" (Percentile.median_of setup);
  Report.end_to_end report "peak_rss_mb" ~unit:"MiB" (Proc.peak_rss_mb None);
  Report.detail "chain_plan_s" ~unit:"s" p50;
  Report.samples "plan" ~unit:"s" times;
  Report.samples "set-up plan" ~unit:"s" setup;
  let plans = List.map snd runs in
  let traced, records =
    if not trace then ([], [])
    else begin
      Tracing.start ();
      let traced = window ~seconds:(seconds -. untraced_window) (fun () -> traced_plan tasks) in
      let records = Tracing.finish report ~workload:"chain-1e6" ~seed in
      Report.attempt ~n:(List.length traced) report;
      (traced, records)
    end
  in
  let reference = List.hd plans in
  check_result report ~seed reference (plans @ List.map (fun t -> t.result) traced);
  if trace then begin
    let med f = Percentile.median_of (Array.of_list (List.map f traced)) in
    let span name = Percentile.median_of (Tracing.durations_s records name) in
    let fn = float_of_int n in
    let make_s = span "chain_problem.make" and smawk_s = span "chain_dp.solve_smawk" in
    let cert_s = span "segment_cost.certificate" in
    let transitions = med (fun t -> float_of_int t.transitions) in
    let words = med (fun t -> t.solve_minor_words) in
    Report.detail "chain_problem.make_s" ~unit:"s" make_s;
    Report.detail "segment_cost.certificate_ms" ~unit:"ms" (cert_s *. 1e3);
    Report.detail "chain_dp.smawk_s" ~unit:"s" smawk_s;
    Report.detail "chain_dp.smawk_transitions_per_task" ~unit:"count" (transitions /. fn);
    Report.detail "chain_dp.ns_per_transition" ~unit:"ns" (smawk_s *. 1e9 /. transitions);
    Report.detail "schedule.indices_ms" ~unit:"ms" (span "schedule.checkpoint_indices" *. 1e3);
    Report.detail "gc.major_collections_per_plan" ~unit:"count"
      (med (fun t -> float_of_int t.major_collections));
    Report.detail "tracing overhead on op_time_ms" ~unit:"ratio"
      (Array.fold_left Float.min Float.infinity (Tracing.durations_s records "perfbench.chain-1e6.plan")
      /. best);
    Report.per_layer report "chain_problem.make_us_per_task" ~unit:"us" (make_s *. 1e6 /. fn);
    Report.per_layer report "chain_dp.solve_us_per_task" ~unit:"us" ((cert_s +. smawk_s) *. 1e6 /. fn);
    Report.per_layer report "chain_dp.transitions_per_task" ~unit:"count" (transitions /. fn);
    Report.per_layer report "chain_dp.minor_words_per_task" ~unit:"words" (words /. fn);
    Report.per_layer report "gc.minor_words_per_op" ~unit:"words" (med (fun t -> t.minor_words));
    Report.per_layer report "gc.major_collections_per_op" ~unit:"count"
      (med (fun t -> float_of_int t.major_collections))
  end
