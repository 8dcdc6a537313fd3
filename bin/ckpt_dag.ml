(* CLI: checkpoint scheduling for a general workflow DAG (linearization
   + placement, Section 6 of the paper). The spec format is documented
   in Ckpt_dag.Dag_spec. *)

open Cmdliner
module Dag = Ckpt_dag.Dag
module Dag_spec = Ckpt_dag.Dag_spec
module Task = Ckpt_dag.Task
module Dag_sched = Ckpt_core.Dag_sched
module Schedule = Ckpt_core.Schedule

let run spec_path lambda downtime exact dot =
  let usage_error msg x =
    Printf.eprintf "ckpt-dag: %s (got %g)\n" msg x;
    exit 2
  in
  if not (lambda > 0.0 && Float.is_finite lambda) then
    usage_error "--lambda must be positive and finite" lambda;
  if not (downtime >= 0.0 && Float.is_finite downtime) then
    usage_error "--downtime must be finite and non-negative" downtime;
  let dag =
    try Dag_spec.parse_file spec_path
    with Dag_spec.Parse_error msg ->
      prerr_endline msg;
      exit 2
  in
  if dot then print_string (Dag.to_dot dag)
  else begin
    Printf.printf "workflow: %d tasks, %d edges, total work %g, critical path %g\n"
      (Dag.size dag)
      (List.length (Dag.edges dag))
      (Dag.total_work dag) (Dag.critical_path dag);
    let solution =
      if exact then Dag_sched.exact_small ~downtime ~lambda dag
      else Dag_sched.solve_heuristic ~downtime ~lambda dag
    in
    Printf.printf "%s expected makespan: %.6f\n"
      (if exact then "optimal (exhaustive)" else "best heuristic")
      solution.Dag_sched.expected_makespan;
    let name id = (Dag.task dag id).Task.name in
    Printf.printf "execution order: %s\n"
      (String.concat " -> " (List.map name solution.Dag_sched.order));
    let order = Array.of_list solution.Dag_sched.order in
    Printf.printf "checkpoints after: %s\n"
      (String.concat ", "
         (List.map (fun pos -> name order.(pos))
            (Schedule.checkpoint_indices solution.Dag_sched.placement)))
  end

let spec_path =
  let doc = "Workflow specification file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)

let lambda =
  let doc = "Platform failure rate." in
  Arg.(required & opt (some float) None & info [ "l"; "lambda" ] ~docv:"RATE" ~doc)

let downtime =
  let doc = "Downtime after each failure." in
  Arg.(value & opt float 0.0 & info [ "d"; "downtime" ] ~docv:"D" ~doc)

let exact =
  let doc = "Exhaust all linearizations (small DAGs only)." in
  Arg.(value & flag & info [ "e"; "exact" ] ~doc)

let dot =
  let doc = "Print the Graphviz rendering of the DAG and exit." in
  Arg.(value & flag & info [ "dot" ] ~doc)

let cmd =
  let doc = "checkpoint scheduling for workflow DAGs (linearization + placement)" in
  let info = Cmd.info "ckpt-dag" ~version:"1.0.0" ~doc in
  Cmd.v info Term.(const run $ spec_path $ lambda $ downtime $ exact $ dot)

let () = exit (Cmd.eval cmd)
