(* CLI: optimal checkpoint placement for a linear chain (Algorithm 1).
   The spec format is documented in Ckpt_core.Chain_spec. *)

open Cmdliner
module Chain_problem = Ckpt_core.Chain_problem
module Chain_spec = Ckpt_core.Chain_spec
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Table = Ckpt_stats.Table
module Obs_cli = Ckpt_obs_cli.Obs_cli

let run_chain spec_path lambda_override compare obs_flush =
  let problem =
    try Chain_spec.parse_file_with_lambda ?lambda:lambda_override spec_path
    with Chain_spec.Parse_error msg ->
      prerr_endline msg;
      exit 2
  in
  let solution = Chain_dp.plan problem in
  Printf.printf "chain: %d tasks, total work %g, lambda %g, D %g, R0 %g\n"
    (Chain_problem.size problem) (Chain_problem.total_work problem)
    problem.Chain_problem.lambda problem.Chain_problem.downtime
    problem.Chain_problem.initial_recovery;
  Printf.printf "optimal expected makespan: %.6f\n" solution.Chain_dp.expected_makespan;
  Printf.printf "checkpoints after tasks (1-based): %s\n"
    (String.concat ", "
       (List.map (fun i -> string_of_int (i + 1))
          (Schedule.checkpoint_indices solution.Chain_dp.schedule)));
  Printf.printf "schedule: %s\n" (Schedule.to_string solution.Chain_dp.schedule);
  if compare then begin
    let t =
      Table.create ~title:"comparison with standard placements"
        ~columns:[ ("policy", Table.Left); ("expected makespan", Table.Right);
                   ("ratio to optimal", Table.Right) ]
    in
    List.iter
      (fun (label, schedule) ->
        let e = Schedule.expected_makespan schedule in
        Table.add_row t
          [ label; Table.cell_f e;
            Table.cell_f (e /. solution.Chain_dp.expected_makespan) ])
      [
        ("optimal (DP)", solution.Chain_dp.schedule);
        ("checkpoint-all", Schedule.checkpoint_all problem);
        ("checkpoint-none", Schedule.checkpoint_none problem);
        ("Young period", Schedule.young problem);
        ("Daly period", Schedule.daly problem);
      ];
    Table.print t
  end;
  obs_flush ()

let spec_path =
  let doc = "Chain specification file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)

let lambda_override =
  let doc = "Override the platform failure rate of the spec." in
  Arg.(value & opt (some float) None & info [ "l"; "lambda" ] ~docv:"RATE" ~doc)

let compare =
  let doc = "Also print standard placements for comparison." in
  Arg.(value & flag & info [ "c"; "compare" ] ~doc)

let cmd =
  let doc = "optimal checkpoint placement for a linear chain (RR-7907, Algorithm 1)" in
  let info = Cmd.info "ckpt-chain" ~version:"1.0.0" ~doc in
  Cmd.v info Term.(const run_chain $ spec_path $ lambda_override $ compare $ Obs_cli.term)

let () = exit (Cmd.eval cmd)
