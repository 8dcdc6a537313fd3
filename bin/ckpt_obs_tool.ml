(* ckpt-obs: offline analysis of the observability artifacts the other
   tools emit — span traces (--trace FILE.jsonl) and metric snapshots
   (--metrics json / BENCH_<n>.json files).

     ckpt-obs report trace.jsonl            span tree, self vs child time,
                                            hot-span ranking, critical path
     ckpt-obs diff base.json cand.json      noise-aware snapshot comparison
                                            (engine gated, timings informational)

   See docs/OBSERVABILITY.md. *)

open Cmdliner
module Trace_reader = Ckpt_obs.Trace_reader
module Snapshot_diff = Ckpt_bench.Snapshot_diff

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- report --------------------------------------------------------- *)

let run_report path top =
  match Trace_reader.parse_jsonl (read_file path) with
  | Error msg ->
      Printf.eprintf "ckpt-obs: %s: %s\n" path msg;
      exit 2
  | Ok [] ->
      Printf.eprintf "ckpt-obs: %s contains no span records\n" path;
      exit 2
  | Ok records ->
      let report = Trace_reader.report (Trace_reader.build records) in
      print_string (Trace_reader.render_report ~top report)

let trace_file =
  let doc = "Span trace in JSON Lines format (written by --trace FILE.jsonl)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl" ~doc)

let top =
  let doc = "Rows of the hot-span table." in
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc)

let report_cmd =
  let doc = "span-tree analysis of a JSONL trace: self vs child time, hot spans, critical path" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ trace_file $ top)

(* --- diff ----------------------------------------------------------- *)

let run_diff base cand max_change config all =
  let max_change =
    match (max_change, config) with
    | Some m, _ ->
        if not (m >= 0.0) then begin
          Printf.eprintf "ckpt-obs: --max-change must be non-negative (got %g)\n" m;
          exit 2
        end;
        m
    | None, Some path -> (
        try (Ckpt_bench.Bench_config.load path).Ckpt_bench.Bench_config.max_regression
        with Failure msg | Sys_error msg ->
          Printf.eprintf "ckpt-obs: %s\n" msg;
          exit 2)
    | None, None -> Snapshot_diff.default_max_change
  in
  let load path =
    try Snapshot_diff.load path with
    | Ckpt_json.Json.Parse_error msg ->
        Printf.eprintf "ckpt-obs: %s: %s\n" path msg;
        exit 2
    | Sys_error msg ->
        Printf.eprintf "ckpt-obs: %s\n" msg;
        exit 2
  in
  let base = load base in
  let cand = load cand in
  let report = Snapshot_diff.diff ~max_change ~base cand in
  print_string (Snapshot_diff.render ~all report);
  if not (Snapshot_diff.ok report) then exit 1

let base_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BASE.json"
         ~doc:"Baseline snapshot (--metrics json output or a BENCH_<n>.json).")

let cand_file =
  Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE.json"
         ~doc:"Candidate snapshot to compare against the baseline.")

let max_change =
  let doc =
    "Relative drift tolerated on engine metrics (the snapshot analog of the bench \
     comparator's max_regression; a snapshot carries no per-sample noise, so the \
     pooled-stderr term of the bench threshold vanishes)."
  in
  Arg.(value & opt (some float) None & info [ "max-change" ] ~docv:"FRAC" ~doc)

let config =
  let doc = "Read the engine threshold from this bench.toml's max_regression." in
  Arg.(value & opt (some file) None & info [ "config" ] ~docv:"FILE" ~doc)

let all_rows =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Show every row, not just drifted/missing/new ones.")

let diff_cmd =
  let doc = "compare two metric snapshots with the bench comparator's thresholds" in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run_diff $ base_file $ cand_file $ max_change $ config $ all_rows)

(* --- group ---------------------------------------------------------- *)

let cmd =
  let doc = "analyze observability artifacts: span traces and metric snapshots" in
  Cmd.group (Cmd.info "ckpt-obs" ~version:"1.0.0" ~doc) [ report_cmd; diff_cmd ]

let () = exit (Cmd.eval cmd)
