(* perfbench: the repository's benchmark. One run measures one workload
   for --seconds seconds and prints, as the last line of stdout, one JSON
   object with the keys correct, attempted, failed and metrics: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. The human report goes to stderr. perfbench/NOTES.md
   describes the workloads and metrics; perfbench/run.sh builds and runs
   it from the root of a checkout. *)

let workloads = [ "serve-mix"; "chain-1e6"; "mc-sweep" ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0.0 and trace = ref (-1) in
  let server_exe = ref "_build/default/bin/ckpt_serve.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME serve-mix, chain-1e6 or mc-sweep");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced run's per-layer ones (1)");
      ("--server", Arg.Set_string server_exe, "PATH ckpt-serve executable (serve-mix)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seed =
    match !seed with
    | Some s when List.mem !workload workloads && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> s
    | _ ->
        Arg.usage spec usage;
        exit 2
  in
  let report = Report.create () in
  let trace = !trace = 1 in
  let seconds = !seconds in
  let code =
    match
      match !workload with
      | "serve-mix" -> Serve_mix.run report ~seed ~seconds ~trace ~server_exe:!server_exe
      | "chain-1e6" -> Chain_1e6.run report ~seed ~seconds ~trace
      | _ -> Mc_sweep.run report ~seed ~seconds ~trace
    with
    | () ->
        Report.summary report;
        let section = if trace then Report.Per_layer else Report.End_to_end in
        print_endline (Ckpt_json.Json.to_string (Report.to_json report ~section));
        0
    | exception e ->
        Report.note "perfbench: %s" (Printexc.to_string e);
        1
  in
  Proc.stop_all ();
  exit code
