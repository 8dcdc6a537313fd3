(* Tests for the chain and DAG spec-file parsers. *)

module Task = Ckpt_dag.Task
module Dag = Ckpt_dag.Dag
module Dag_spec = Ckpt_dag.Dag_spec
module Chain_problem = Ckpt_core.Chain_problem
module Chain_spec = Ckpt_core.Chain_spec

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let sample_chain_spec =
  {|# demo
lambda 0.01
downtime 0.5
initial_recovery 0.25
task 10 1.0 1.5 stage-a
task 20 2.0 2.5 stage-b
task 5 0.5 0.75
|}

let test_chain_parse () =
  let problem = Chain_spec.parse_string sample_chain_spec in
  Alcotest.(check int) "3 tasks" 3 (Chain_problem.size problem);
  close "lambda" 0.01 problem.Chain_problem.lambda;
  close "downtime" 0.5 problem.Chain_problem.downtime;
  close "initial recovery" 0.25 problem.Chain_problem.initial_recovery;
  let tasks = problem.Chain_problem.tasks in
  Alcotest.(check string) "named task" "stage-a" tasks.(0).Task.name;
  Alcotest.(check string) "default name" "T3" tasks.(2).Task.name;
  close "work" 20.0 tasks.(1).Task.work;
  close "checkpoint cost" 2.0 tasks.(1).Task.checkpoint_cost;
  close "recovery cost" 2.5 tasks.(1).Task.recovery_cost

let test_chain_round_trip () =
  let problem = Chain_spec.parse_string sample_chain_spec in
  let reparsed = Chain_spec.parse_string (Chain_spec.to_string problem) in
  Alcotest.(check int) "same size" (Chain_problem.size problem) (Chain_problem.size reparsed);
  close "same lambda" problem.Chain_problem.lambda reparsed.Chain_problem.lambda;
  Array.iteri
    (fun i (task : Task.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d preserved" i)
        true
        (Task.equal task reparsed.Chain_problem.tasks.(i)))
    problem.Chain_problem.tasks

let test_chain_file_io () =
  let problem = Chain_spec.parse_string sample_chain_spec in
  let path = Filename.temp_file "chain_spec" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chain_spec.save problem path;
      let loaded = Chain_spec.parse_file path in
      close "round trip through file" (Chain_problem.total_work problem)
        (Chain_problem.total_work loaded))

let expect_parse_error f =
  match f () with
  | exception Chain_spec.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_chain_errors () =
  expect_parse_error (fun () -> ignore (Chain_spec.parse_string "task 1 2"));
  expect_parse_error (fun () -> ignore (Chain_spec.parse_string "task x 1 1"));
  expect_parse_error (fun () -> ignore (Chain_spec.parse_string "lambda 0.1\n# no tasks"));
  expect_parse_error (fun () -> ignore (Chain_spec.parse_string "task 1 0.1 0.1"));
  (* missing lambda *)
  expect_parse_error (fun () -> ignore (Chain_spec.parse_string "bogus line"))

let expect_parse_message expected f =
  match f () with
  | exception Chain_spec.Parse_error msg -> Alcotest.(check string) "parse error" expected msg
  | _ -> Alcotest.fail ("expected Parse_error: " ^ expected)

let with_spec_file text f =
  let path = Filename.temp_file "chain_spec" ".chain" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      f path)

(* The ckpt-chain binary, a dependency of this test: found from the
   test directory of the build tree. *)
let ckpt_chain_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ckpt_chain.exe"

let test_chain_nan_rejected () =
  (* A NaN cost used to parse, and ckpt-chain then printed a plan that
     silently skipped the NaN segment. It must be a located parse error:
     file:line: message on stderr, exit 2. *)
  let spec = "lambda 0.01\ntask 1 nan 1 a\ntask 1 1 1 b\n" in
  expect_parse_message "<string>:2: Task.make: checkpoint_cost must be non-negative"
    (fun () -> ignore (Chain_spec.parse_string spec));
  expect_parse_message "<string>:2: Task.make: recovery_cost must be non-negative"
    (fun () -> ignore (Chain_spec.parse_string "lambda 0.01\ntask 1 1 nan\n"));
  expect_parse_message "<string>: Chain_problem: downtime must be non-negative" (fun () ->
      ignore (Chain_spec.parse_string "lambda 0.01\ndowntime nan\ntask 1 1 1\n"));
  expect_parse_message "<string>: Chain_problem: initial_recovery must be non-negative"
    (fun () ->
      ignore (Chain_spec.parse_string "lambda 0.01\ninitial_recovery nan\ntask 1 1 1\n"));
  if not (Sys.file_exists ckpt_chain_exe) then Alcotest.skip ();
  with_spec_file spec (fun path ->
      let stderr_path = Filename.temp_file "ckpt_chain" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove stderr_path)
        (fun () ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote ckpt_chain_exe)
                 (Filename.quote path) Filename.null (Filename.quote stderr_path))
          in
          Alcotest.(check int) "ckpt-chain exits 2" 2 code;
          let ic = open_in stderr_path in
          let message = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
          Alcotest.(check string) "file:line: message on stderr"
            (path ^ ":2: Task.make: checkpoint_cost must be non-negative")
            message))

let test_chain_lambda_override () =
  let spec = "task 5 0.5 0.5" in
  let problem =
    let path = Filename.temp_file "chain_spec" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc spec;
        close_out oc;
        Chain_spec.parse_file_with_lambda ~lambda:0.33 path)
  in
  close "override supplies lambda" 0.33 problem.Chain_problem.lambda

let sample_dag_spec =
  {|task prepare 5 0.5 0.6
task branch-a 12 1.0 1.2
task branch-b 9 0.8 1.0
task merge 4 0.4 0.5
edge prepare branch-a
edge prepare branch-b
edge branch-a merge
edge branch-b merge
|}

let test_dag_parse () =
  let dag = Dag_spec.parse_string sample_dag_spec in
  Alcotest.(check int) "4 tasks" 4 (Dag.size dag);
  Alcotest.(check int) "4 edges" 4 (List.length (Dag.edges dag));
  Alcotest.(check (list int)) "single source" [ 0 ] (Dag.sources dag);
  Alcotest.(check (list int)) "single sink" [ 3 ] (Dag.sinks dag);
  Alcotest.(check string) "names kept" "branch-b" (Dag.task dag 2).Task.name

let test_dag_round_trip () =
  let dag = Dag_spec.parse_string sample_dag_spec in
  let reparsed = Dag_spec.parse_string (Dag_spec.to_string dag) in
  Alcotest.(check int) "size" (Dag.size dag) (Dag.size reparsed);
  Alcotest.(check (list (pair int int))) "edges" (Dag.edges dag) (Dag.edges reparsed)

let test_dag_errors () =
  let expect f =
    match f () with
    | exception Dag_spec.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect (fun () -> ignore (Dag_spec.parse_string "task a 1 0 0\ntask a 1 0 0"));
  expect (fun () -> ignore (Dag_spec.parse_string "task a 1 0 0\nedge a b"));
  expect (fun () -> ignore (Dag_spec.parse_string ""));
  expect (fun () ->
      ignore
        (Dag_spec.parse_string "task a 1 0 0\ntask b 1 0 0\nedge a b\nedge b a"))

let test_shipped_specs_parse () =
  (* The spec files shipped with the examples must stay valid. *)
  let repo_root =
    (* Tests run from _build/default/test; the sources are linked in. *)
    "../examples/specs"
  in
  if Sys.file_exists (Filename.concat repo_root "seismic.chain") then begin
    let chain = Chain_spec.parse_file (Filename.concat repo_root "seismic.chain") in
    Alcotest.(check int) "seismic chain size" 8 (Chain_problem.size chain);
    let dag = Dag_spec.parse_file (Filename.concat repo_root "diamond.dag") in
    Alcotest.(check int) "diamond size" 4 (Dag.size dag)
  end

let suite =
  [
    Alcotest.test_case "chain spec parse" `Quick test_chain_parse;
    Alcotest.test_case "chain spec round trip" `Quick test_chain_round_trip;
    Alcotest.test_case "chain spec file io" `Quick test_chain_file_io;
    Alcotest.test_case "chain spec errors" `Quick test_chain_errors;
    Alcotest.test_case "chain lambda override" `Quick test_chain_lambda_override;
    Alcotest.test_case "chain spec rejects NaN costs" `Quick test_chain_nan_rejected;
    Alcotest.test_case "dag spec parse" `Quick test_dag_parse;
    Alcotest.test_case "dag spec round trip" `Quick test_dag_round_trip;
    Alcotest.test_case "dag spec errors" `Quick test_dag_errors;
    Alcotest.test_case "shipped specs parse" `Quick test_shipped_specs_parse;
  ]
