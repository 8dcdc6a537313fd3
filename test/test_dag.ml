(* Tests for tasks, DAGs and workflow generators. *)

module Task = Ckpt_dag.Task
module Dag = Ckpt_dag.Dag
module Generate = Ckpt_dag.Generate
module Rng = Ckpt_prng.Rng

let mk ?(work = 1.0) id = Task.make ~id ~work ()

let test_task_validation () =
  Alcotest.check_raises "negative id" (Invalid_argument "Task.make: id must be non-negative")
    (fun () -> ignore (Task.make ~id:(-1) ~work:1.0 ()));
  Alcotest.check_raises "zero work" (Invalid_argument "Task.make: work must be positive")
    (fun () -> ignore (Task.make ~id:0 ~work:0.0 ()));
  Alcotest.check_raises "negative checkpoint"
    (Invalid_argument "Task.make: checkpoint_cost must be non-negative") (fun () ->
      ignore (Task.make ~id:0 ~work:1.0 ~checkpoint_cost:(-0.1) ()));
  let t = Task.make ~id:3 ~work:2.0 () in
  Alcotest.(check string) "default name" "T4" t.Task.name;
  let t' = Task.with_costs t ~checkpoint_cost:1.0 ~recovery_cost:2.0 in
  Alcotest.(check bool) "with_costs" true
    (Float.equal t'.Task.checkpoint_cost 1.0
    && Float.equal t'.Task.recovery_cost 2.0
    && Float.equal t'.Task.work 2.0)

let test_task_rejects_nan () =
  (* NaN fails every comparison, so a "< 0" test lets it through; the
     validation must reject it with the same messages as a negative
     value. *)
  Alcotest.check_raises "NaN work" (Invalid_argument "Task.make: work must be positive")
    (fun () -> ignore (Task.make ~id:0 ~work:Float.nan ()));
  Alcotest.check_raises "NaN checkpoint"
    (Invalid_argument "Task.make: checkpoint_cost must be non-negative") (fun () ->
      ignore (Task.make ~id:0 ~work:1.0 ~checkpoint_cost:Float.nan ()));
  Alcotest.check_raises "NaN recovery"
    (Invalid_argument "Task.make: recovery_cost must be non-negative") (fun () ->
      ignore (Task.make ~id:0 ~work:1.0 ~recovery_cost:Float.nan ()));
  let t = Task.make ~id:0 ~work:1.0 () in
  List.iter
    (fun (checkpoint_cost, recovery_cost) ->
      Alcotest.check_raises "NaN in with_costs"
        (Invalid_argument "Task.with_costs: costs must be non-negative") (fun () ->
          ignore (Task.with_costs t ~checkpoint_cost ~recovery_cost)))
    [ (Float.nan, 1.0); (1.0, Float.nan) ]

let diamond () =
  (* 0 -> {1, 2} -> 3 *)
  Dag.create [ mk 0; mk 1; mk 2; mk 3 ] [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_create_validation () =
  let raises_invalid f =
    match f () with
    | exception Dag.Invalid _ -> ()
    | _ -> Alcotest.fail "expected Dag.Invalid"
  in
  raises_invalid (fun () -> Dag.create [ mk 0; mk 2 ] []);
  raises_invalid (fun () -> Dag.create [ mk 0; mk 0 ] []);
  raises_invalid (fun () -> Dag.create [ mk 0; mk 1 ] [ (0, 1); (0, 1) ]);
  raises_invalid (fun () -> Dag.create [ mk 0; mk 1 ] [ (0, 5) ]);
  raises_invalid (fun () -> Dag.create [ mk 0 ] [ (0, 0) ]);
  raises_invalid (fun () -> Dag.create [ mk 0; mk 1; mk 2 ] [ (0, 1); (1, 2); (2, 0) ])

let test_structure_accessors () =
  let d = diamond () in
  Alcotest.(check int) "size" 4 (Dag.size d);
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks d);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Dag.successors d 0);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Dag.predecessors d 3);
  Alcotest.(check (list int)) "reachable from 0" [ 1; 2; 3 ] (Dag.reachable_from d 0);
  Alcotest.(check bool) "total work" true (Float.equal (Dag.total_work d) 4.0)

let test_is_chain () =
  let chain = Dag.of_chain [ mk 0; mk 1; mk 2 ] in
  (match Dag.is_chain chain with
  | Some tasks ->
      Alcotest.(check (list int)) "chain order" [ 0; 1; 2 ]
        (List.map (fun (t : Task.t) -> t.Task.id) tasks)
  | None -> Alcotest.fail "chain not recognised");
  Alcotest.(check bool) "diamond is not a chain" true (Dag.is_chain (diamond ()) = None);
  let singleton = Dag.of_independent [ mk 0 ] in
  Alcotest.(check bool) "singleton is a chain" true (Dag.is_chain singleton <> None);
  let indep = Dag.of_independent [ mk 0; mk 1 ] in
  Alcotest.(check bool) "independent pair is not a chain" true (Dag.is_chain indep = None)

let test_topological_order () =
  let d = diamond () in
  let order = Dag.topological_order d in
  Alcotest.(check bool) "valid linearization" true (Dag.is_linearization d order);
  Alcotest.(check (list int)) "deterministic smallest-first" [ 0; 1; 2; 3 ] order

let test_is_linearization () =
  let d = diamond () in
  Alcotest.(check bool) "valid" true (Dag.is_linearization d [ 0; 2; 1; 3 ]);
  Alcotest.(check bool) "violates edge" false (Dag.is_linearization d [ 1; 0; 2; 3 ]);
  Alcotest.(check bool) "wrong length" false (Dag.is_linearization d [ 0; 1; 2 ]);
  Alcotest.(check bool) "repeats" false (Dag.is_linearization d [ 0; 1; 1; 3 ])

let test_all_linearizations () =
  let d = diamond () in
  let all = Dag.all_linearizations d in
  Alcotest.(check int) "diamond has 2 linearizations" 2 (List.length all);
  List.iter
    (fun order ->
      Alcotest.(check bool) "each is valid" true (Dag.is_linearization d order))
    all;
  let indep = Dag.of_independent [ mk 0; mk 1; mk 2 ] in
  Alcotest.(check int) "3 independent tasks: 3! orders" 6 (Dag.count_linearizations indep);
  Alcotest.check_raises "limit enforced"
    (Invalid_argument "Dag.all_linearizations: too many linearizations") (fun () ->
      ignore (Dag.all_linearizations ~limit:3 indep))

let test_critical_path () =
  let tasks = [ Task.make ~id:0 ~work:1.0 (); Task.make ~id:1 ~work:5.0 ();
                Task.make ~id:2 ~work:2.0 (); Task.make ~id:3 ~work:1.0 () ] in
  let d = Dag.create tasks [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check bool) "critical path = 1+5+1" true (Float.equal (Dag.critical_path d) 7.0)

let test_to_dot () =
  let dot = Dag.to_dot (diamond ()) in
  Alcotest.(check bool) "digraph header" true (Astring_like.contains dot "digraph workflow");
  Alcotest.(check bool) "edge present" true (Astring_like.contains dot "t0 -> t1")

let spec = Generate.uniform_costs ()

let test_generators_shapes () =
  let rng = Rng.create ~seed:7L in
  let chain = Generate.chain rng spec ~n:10 in
  Alcotest.(check bool) "chain is a chain" true (Dag.is_chain chain <> None);
  let indep = Generate.independent rng spec ~n:8 in
  Alcotest.(check bool) "independent has no edge" true (Dag.is_independent indep);
  let fj = Generate.fork_join rng spec ~stages:3 ~width:4 in
  Alcotest.(check int) "fork-join size" (3 * 6) (Dag.size fj);
  Alcotest.(check (list int)) "single source" [ 0 ] (Dag.sources fj);
  let dia = Generate.diamond rng spec ~width:5 in
  Alcotest.(check int) "diamond size" 7 (Dag.size dia);
  let layered = Generate.layered rng spec ~layers:4 ~width:3 ~edge_prob:0.5 in
  Alcotest.(check int) "layered size" 12 (Dag.size layered);
  (* Every non-first-layer task has a predecessor. *)
  for id = 3 to 11 do
    Alcotest.(check bool) "layered connectivity" true (Dag.predecessors layered id <> [])
  done

let test_generator_cost_ranges () =
  let rng = Rng.create ~seed:11L in
  let spec =
    Generate.uniform_costs ~work:(2.0, 3.0) ~checkpoint:(0.5, 0.6) ~recovery:(0.1, 0.2) ()
  in
  let tasks = Generate.task_list rng spec ~n:100 in
  List.iter
    (fun (t : Task.t) ->
      Alcotest.(check bool) "work range" true (t.Task.work >= 2.0 && t.Task.work < 3.0);
      Alcotest.(check bool) "ckpt range" true
        (t.Task.checkpoint_cost >= 0.5 && t.Task.checkpoint_cost < 0.6);
      Alcotest.(check bool) "rec range" true
        (t.Task.recovery_cost >= 0.1 && t.Task.recovery_cost < 0.2))
    tasks

let qcheck_random_dag_valid =
  QCheck.Test.make ~name:"random_dag topological order is a linearization" ~count:100
    QCheck.(pair (int_range 1 30) (float_range 0.0 1.0))
    (fun (n, edge_prob) ->
      let rng = Rng.create ~seed:(Int64.of_int (n * 1000)) in
      let dag = Generate.random_dag rng spec ~n ~edge_prob in
      Dag.is_linearization dag (Dag.topological_order dag))

let qcheck_chain_total_work =
  QCheck.Test.make ~name:"of_chain preserves total work" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.5 10.0))
    (fun works ->
      let tasks = List.mapi (fun i w -> Task.make ~id:i ~work:w ()) works in
      let dag = Dag.of_chain tasks in
      Float.abs (Dag.total_work dag -. List.fold_left ( +. ) 0.0 works) < 1e-9)

let suite =
  [
    Alcotest.test_case "task validation" `Quick test_task_validation;
    Alcotest.test_case "task rejects NaN costs" `Quick test_task_rejects_nan;
    Alcotest.test_case "dag validation" `Quick test_create_validation;
    Alcotest.test_case "structure accessors" `Quick test_structure_accessors;
    Alcotest.test_case "is_chain" `Quick test_is_chain;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "is_linearization" `Quick test_is_linearization;
    Alcotest.test_case "all linearizations" `Quick test_all_linearizations;
    Alcotest.test_case "critical path" `Quick test_critical_path;
    Alcotest.test_case "dot export" `Quick test_to_dot;
    Alcotest.test_case "generator shapes" `Quick test_generators_shapes;
    Alcotest.test_case "generator cost ranges" `Quick test_generator_cost_ranges;
    QCheck_alcotest.to_alcotest qcheck_random_dag_valid;
    QCheck_alcotest.to_alcotest qcheck_chain_total_work;
  ]
