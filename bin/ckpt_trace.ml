(* CLI: generate and inspect synthetic failure traces and cluster logs. *)

open Cmdliner
module Trace = Ckpt_failures.Trace
module Cluster_log = Ckpt_failures.Cluster_log

let parse_law spec =
  match Ckpt_dist.Law_spec.parse spec with
  | Ok law -> law
  | Error msg ->
      prerr_endline msg;
      exit 2

let generate law_spec nodes horizon heterogeneity seed output =
  let law = parse_law law_spec in
  let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int seed) in
  let log =
    try Cluster_log.generate ~heterogeneity ~law ~nodes ~horizon rng
    with Invalid_argument msg ->
      prerr_endline ("ckpt-trace: " ^ msg);
      exit 2
  in
  Cluster_log.save log output;
  Printf.printf "wrote %s: %d nodes, %d failures over horizon %g\n" output
    (Cluster_log.node_count log) (Cluster_log.failure_count log) horizon

let inspect path =
  let log =
    try Cluster_log.load path
    with Failure msg ->
      prerr_endline msg;
      exit 2
  in
  Printf.printf "cluster log: %s\n" log.Cluster_log.description;
  Printf.printf "nodes: %d, failures: %d, horizon: %g\n" (Cluster_log.node_count log)
    (Cluster_log.failure_count log) log.Cluster_log.horizon;
  let trace = Cluster_log.to_trace log in
  Printf.printf "platform MTBF (empirical): %g\n" (Trace.mtbf trace);
  let gaps = Trace.inter_arrival trace in
  if Array.length gaps > 1 then begin
    Printf.printf "inter-arrival mean %g, median %g, p95 %g\n"
      (Ckpt_stats.Descriptive.mean gaps)
      (Ckpt_stats.Descriptive.median gaps)
      (Ckpt_stats.Descriptive.quantile gaps 0.95);
    let hist =
      Ckpt_stats.Histogram.create ~lo:0.0
        ~hi:(2.0 *. Ckpt_stats.Descriptive.quantile gaps 0.9)
        ~bins:12
    in
    Array.iter (Ckpt_stats.Histogram.add hist) gaps;
    print_string (Ckpt_stats.Histogram.render hist ~width:40)
  end

let law_spec =
  let doc = "Per-node failure law (exp:<mtbf>, weibull:<shape>:<mean>, lognormal:<sigma>:<mean>)." in
  Arg.(value & opt string "weibull:0.7:500" & info [ "law" ] ~docv:"LAW" ~doc)

let nodes = Arg.(value & opt int 16 & info [ "nodes" ] ~docv:"N" ~doc:"Node count.")

let horizon =
  Arg.(value & opt float 100_000.0 & info [ "horizon" ] ~docv:"H" ~doc:"Observation window.")

let heterogeneity =
  Arg.(value & opt float 0.0
       & info [ "heterogeneity" ] ~docv:"H" ~doc:"Per-node scale jitter in [0,1).")

let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let output =
  Arg.(value & opt string "cluster.log" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Cluster log file.")

let generate_cmd =
  let info = Cmd.info "generate" ~doc:"generate a synthetic cluster failure log" in
  Cmd.v info
    Term.(const generate $ law_spec $ nodes $ horizon $ heterogeneity $ seed $ output)

let inspect_cmd =
  let info = Cmd.info "inspect" ~doc:"summarise a cluster failure log" in
  Cmd.v info Term.(const inspect $ path_arg)

let cmd =
  let doc = "synthetic failure traces for checkpoint-scheduling experiments" in
  let info = Cmd.info "ckpt-trace" ~version:"1.0.0" ~doc in
  Cmd.group info [ generate_cmd; inspect_cmd ]

let () = exit (Cmd.eval cmd)
