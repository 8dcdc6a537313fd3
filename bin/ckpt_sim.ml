(* CLI: Monte-Carlo estimation of the expected makespan of a checkpointed
   workload, with the exact Proposition 1 value for comparison when the
   law is Exponential; also the entry point of the deterministic
   fault-scenario harness (--scenario / --list-scenarios). *)

open Cmdliner
module Law = Ckpt_dist.Law
module Platform = Ckpt_failures.Platform
module Monte_carlo = Ckpt_sim.Monte_carlo
module Sim_run = Ckpt_sim.Sim_run
module Expected_time = Ckpt_core.Expected_time
module Obs_cli = Ckpt_obs_cli.Obs_cli
module Scenario = Ckpt_scenarios.Scenario
module Monitor = Ckpt_scenarios.Monitor
module Coverage = Ckpt_scenarios.Coverage

let parse_law spec =
  match Ckpt_dist.Law_spec.parse spec with
  | Ok law -> law
  | Error msg ->
      prerr_endline msg;
      exit 2

let list_scenarios () =
  List.iter
    (fun (s : Scenario.t) -> Printf.printf "%-24s %s\n" s.name s.description)
    Scenario.all

(* Run each requested scenario twice at the same seed: the digest
   equality is the reproducibility contract, checked on every
   invocation, not just in the test suite. Exit 1 on any monitor
   violation or digest mismatch. *)
(* Coverage-guided sweep: after the digest-checked pass defined the
   cov.* universe (combinators register their branch counters at
   construction), keep re-running the targets at consecutive seeds
   until every branch has fired or the budget runs out. *)
let run_coverage targets ~seed ~budget =
  let o = Coverage.sweep ~budget ~scenarios:targets ~seed () in
  print_newline ();
  List.iter
    (fun (name, hits) ->
      Printf.printf "  %-40s %s\n" name
        (if hits = 0 then "UNCOVERED" else Printf.sprintf "%d" hits))
    o.Coverage.covered;
  let total = List.length o.Coverage.covered in
  let hit = total - List.length o.Coverage.uncovered in
  Printf.printf "coverage: %d/%d branches (%d seed%s from %Ld)%s\n" hit total
    o.Coverage.seeds_used
    (if o.Coverage.seeds_used = 1 then "" else "s")
    seed
    (if Coverage.complete o then "" else " — INCOMPLETE");
  Coverage.complete o

let run_scenarios name seed coverage seed_budget obs_flush =
  let targets =
    if String.equal name "all" then Scenario.all
    else
      match Scenario.find name with
      | Some s -> [ s ]
      | None ->
          Printf.eprintf "ckpt-sim: unknown scenario %S (try --list-scenarios)\n" name;
          exit 2
  in
  let seed = Int64.of_int seed in
  let failed = ref false in
  List.iter
    (fun s ->
      let o = Scenario.run s ~seed in
      let o' = Scenario.run s ~seed in
      let reproducible = String.equal o.Scenario.digest o'.Scenario.digest in
      let ok = Monitor.ok o.verdicts in
      if not (ok && reproducible) then failed := true;
      Printf.printf "%-24s seed=%Ld makespan=%.6f failures=%d digest=%s %s%s\n"
        o.scenario seed o.stats.Sim_run.makespan o.stats.Sim_run.failures o.digest
        (if ok then "ok" else "VIOLATIONS")
        (if reproducible then "" else " NON-REPRODUCIBLE");
      List.iter
        (fun (v : Monitor.verdict) ->
          if v.violations > 0 then begin
            Printf.printf "  %s: %d/%d checks failed\n" v.monitor v.violations v.checks;
            List.iter
              (fun (x : Monitor.violation) ->
                Printf.printf "    t=%.6f %s\n" x.time x.message)
              v.examples
          end)
        o.verdicts)
    targets;
  if coverage && not (run_coverage targets ~seed ~budget:seed_budget) then failed := true;
  obs_flush ();
  if !failed then exit 1

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ckpt-sim: " ^ msg);
      exit 2)
    fmt

(* Bad numbers end the run with one line on stderr and exit 2, before
   anything is simulated. *)
let check_inputs ~work ~checkpoint ~recovery ~downtime ~processors ~runs ~domains ~target_ci =
  List.iter
    (fun (name, x) ->
      if not (x >= 0.0 && Float.is_finite x) then
        usage_error "--%s must be finite and non-negative (got %g)" name x)
    [ ("work", work); ("checkpoint", checkpoint); ("recovery", recovery);
      ("downtime", downtime) ];
  List.iter
    (fun (name, n) -> if n <= 0 then usage_error "--%s must be positive (got %d)" name n)
    [ ("processors", processors); ("runs", runs);
      ("domains", Option.value domains ~default:1) ];
  match target_ci with
  | Some x when not (x > 0.0) -> usage_error "--target-ci must be positive (got %g)" x
  | _ -> ()

let run work checkpoint recovery downtime law_spec processors runs seed timeline domains
    target_ci scenario scenario_list coverage seed_budget obs_flush =
  if scenario_list then list_scenarios ()
  else
    match scenario with
    | Some name -> run_scenarios name seed coverage seed_budget obs_flush
    | None ->
        check_inputs ~work ~checkpoint ~recovery ~downtime ~processors ~runs ~domains ~target_ci;
        let law = parse_law law_spec in
        let platform = Platform.make ~downtime ~processors ~proc_law:law () in
  let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int seed) in
  if timeline then begin
    (* Show one sample run before the aggregate estimate. *)
    let stream =
      Ckpt_failures.Failure_stream.of_platform platform
        (Ckpt_prng.Rng.substream rng "timeline")
    in
    let _, events =
      Ckpt_sim.Sim_run.run_segments_traced ~downtime
        ~next_failure:(Ckpt_failures.Failure_stream.next_after stream)
        [ Sim_run.segment ~work ~checkpoint ~recovery ]
    in
    print_string (Ckpt_sim.Timeline.render events)
  end;
  let estimate =
    Monte_carlo.estimate_segments ?domains ?target_ci
      ~model:(Monte_carlo.Platform platform) ~downtime ~runs ~rng
      [ Sim_run.segment ~work ~checkpoint ~recovery ]
  in
  Format.printf "platform: %s@." (Platform.to_string platform);
  Format.printf "simulated E(T) = %a@." Monte_carlo.pp_estimate estimate;
  (match law with
  | Law.Exponential { rate } ->
      let lambda = float_of_int processors *. rate in
      let exact = Expected_time.expected_v ~work ~checkpoint ~downtime ~recovery ~lambda in
      Format.printf "exact E(T) (Proposition 1) = %.6f — %s@." exact
        (if Monte_carlo.contains estimate.Monte_carlo.ci99 exact then
           "inside the 99% CI"
         else "OUTSIDE the 99% CI")
  | _ -> Format.printf "(no closed form for this law; see RR-7907 Section 6)@.");
  obs_flush ()

let farg name doc default =
  Arg.(value & opt float default & info [ name ] ~docv:(String.uppercase_ascii name) ~doc)

let work = farg "work" "Work duration W." 100.0
let checkpoint = farg "checkpoint" "Checkpoint cost C." 5.0
let recovery = farg "recovery" "Recovery cost R." 5.0
let downtime = farg "downtime" "Downtime D." 1.0

let law_spec =
  let doc = "Per-processor failure law: exp:<mtbf>, weibull:<shape>:<mean>, lognormal:<sigma>:<mean>." in
  Arg.(value & opt string "exp:1000" & info [ "law" ] ~docv:"LAW" ~doc)

let processors =
  Arg.(value & opt int 1 & info [ "p"; "processors" ] ~docv:"P" ~doc:"Processor count.")

let runs =
  Arg.(value & opt int 50_000 & info [ "n"; "runs" ] ~docv:"N" ~doc:"Monte-Carlo replications.")

let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let timeline =
  Arg.(value & flag
       & info [ "timeline" ] ~doc:"Print the ASCII timeline of one sample run.")

let domains =
  let doc =
    "Domains of the parallel Monte-Carlo pool (default: up to 8, hardware permitting). \
     The estimate is bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D" ~doc)

let target_ci =
  let doc =
    "Adaptive sampling: keep doubling the campaign (starting from --runs, capped at 64x) \
     until the relative 99% CI half-width falls below $(docv), e.g. 0.001."
  in
  Arg.(value & opt (some float) None & info [ "target-ci" ] ~docv:"REL" ~doc)

let scenario =
  let doc =
    "Run the named deterministic fault scenario (with --seed) instead of a Monte-Carlo \
     estimate: replays the scenario's failure pattern, checks every invariant monitor, \
     verifies the run digest reproduces, and exits non-zero on any violation. \
     $(b,all) runs the whole registry (the CI smoke pass)."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)

let scenario_list =
  Arg.(value & flag
       & info [ "list-scenarios" ]
           ~doc:"List the registered fault scenarios and exit.")

let coverage =
  let doc =
    "With --scenario: after the digest-checked pass, sweep consecutive seeds until every \
     registered fault-injection branch and monitor outcome (the cov.* counters) has \
     fired, then print the per-branch hit counts. Exits non-zero if the --seed-budget \
     runs out first."
  in
  Arg.(value & flag & info [ "coverage" ] ~doc)

let seed_budget =
  let doc = "Maximum consecutive seeds the --coverage sweep may consume." in
  Arg.(value & opt int Ckpt_scenarios.Coverage.default_budget
       & info [ "seed-budget" ] ~docv:"N" ~doc)

let cmd =
  let doc = "Monte-Carlo estimate of the expected checkpointed execution time" in
  let info = Cmd.info "ckpt-sim" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(const run $ work $ checkpoint $ recovery $ downtime $ law_spec $ processors
          $ runs $ seed $ timeline $ domains $ target_ci $ scenario $ scenario_list
          $ coverage $ seed_budget $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
