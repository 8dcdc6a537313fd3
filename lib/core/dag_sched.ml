module Task = Ckpt_dag.Task
module Dag = Ckpt_dag.Dag

type cost_model =
  | Task_costs
  | Live_set of {
      checkpoint : Task.t list -> float;
      recovery : Task.t list -> float;
    }

let check_linearization dag order =
  if not (Dag.is_linearization dag order) then
    invalid_arg "Dag_sched: not a linearization of the DAG"

let live_set dag order ~position =
  check_linearization dag order;
  let n = Dag.size dag in
  if position < 0 || position >= n then invalid_arg "Dag_sched.live_set: bad position";
  let executed = Array.make n false in
  let order_arr = Array.of_list order in
  for k = 0 to position do
    executed.(order_arr.(k)) <- true
  done;
  let is_live id =
    executed.(id)
    && (Dag.successors dag id = []
       || List.exists (fun succ -> not executed.(succ)) (Dag.successors dag id))
  in
  List.filter_map
    (fun id -> if is_live id then Some (Dag.task dag id) else None)
    (Array.to_list (Array.sub order_arr 0 (position + 1)))

let chain_of_linearization ?(downtime = 0.0) ?(initial_recovery = 0.0)
    ?(cost_model = Task_costs) ~lambda dag order =
  check_linearization dag order;
  let chain_tasks =
    List.mapi
      (fun position id ->
        let task = Dag.task dag id in
        match cost_model with
        | Task_costs -> Task.with_id task position
        | Live_set { checkpoint; recovery } ->
            let live = live_set dag order ~position in
            Task.make ~id:position ~name:task.Task.name ~work:task.Task.work
              ~checkpoint_cost:(checkpoint live) ~recovery_cost:(recovery live) ())
      order
  in
  Chain_problem.make ~downtime ~initial_recovery ~lambda chain_tasks

type solution = {
  order : Task.id list;
  placement : Schedule.t;
  expected_makespan : float;
}

let solve_order ?downtime ?initial_recovery ?cost_model ~lambda dag order =
  let problem =
    chain_of_linearization ?downtime ?initial_recovery ?cost_model ~lambda dag order
  in
  let dp = Chain_dp.plan problem in
  {
    order;
    placement = dp.Chain_dp.schedule;
    expected_makespan = dp.Chain_dp.expected_makespan;
  }

let exact_small ?downtime ?initial_recovery ?cost_model ?(max_linearizations = 50_000)
    ~lambda dag =
  let orders = Dag.all_linearizations ~limit:max_linearizations dag in
  match orders with
  | [] -> invalid_arg "Dag_sched.exact_small: empty DAG"
  | first :: rest ->
      let solve order = solve_order ?downtime ?initial_recovery ?cost_model ~lambda dag order in
      List.fold_left
        (fun best order ->
          let candidate = solve order in
          if candidate.expected_makespan < best.expected_makespan then candidate else best)
        (solve first) rest

type strategy = Deterministic | Heaviest_first | Lightest_first | Critical_path

(* Longest work-weighted path from each task to a sink (inclusive). *)
let bottom_levels dag =
  let n = Dag.size dag in
  let levels = Array.make n 0.0 in
  let order = List.rev (Dag.topological_order dag) in
  List.iter
    (fun id ->
      let below =
        List.fold_left (fun acc succ -> Float.max acc levels.(succ)) 0.0
          (Dag.successors dag id)
      in
      levels.(id) <- below +. (Dag.task dag id).Task.work)
    order;
  levels

let linearize strategy dag =
  let n = Dag.size dag in
  let priority =
    match strategy with
    | Deterministic -> fun id -> float_of_int (n - id)
    | Heaviest_first -> fun id -> (Dag.task dag id).Task.work
    | Lightest_first -> fun id -> -.(Dag.task dag id).Task.work
    | Critical_path ->
        let levels = bottom_levels dag in
        fun id -> levels.(id)
  in
  let indegree = Array.make n 0 in
  List.iter (fun (_, dst) -> indegree.(dst) <- indegree.(dst) + 1) (Dag.edges dag);
  let ready = ref (List.filter (fun i -> indegree.(i) = 0) (List.init n Fun.id)) in
  let rec loop acc =
    match !ready with
    | [] -> List.rev acc
    | candidates ->
        let best =
          List.fold_left
            (fun best id ->
              (* Ties broken by smallest id for determinism. *)
              if priority id > priority best || (priority id = priority best && id < best)
              then id
              else best)
            (List.hd candidates) (List.tl candidates)
        in
        ready := List.filter (fun id -> id <> best) candidates;
        List.iter
          (fun succ ->
            indegree.(succ) <- indegree.(succ) - 1;
            if indegree.(succ) = 0 then ready := succ :: !ready)
          (Dag.successors dag best);
        loop (best :: acc)
  in
  loop []

let all_strategies = [ Deterministic; Heaviest_first; Lightest_first; Critical_path ]

let local_search ?downtime ?initial_recovery ?cost_model ?(iterations = 200) ~rng ~lambda
    dag =
  let solve order =
    let problem =
      chain_of_linearization ?downtime ?initial_recovery ?cost_model ~lambda dag order
    in
    (Chain_dp.plan problem).Chain_dp.expected_makespan
  in
  let n = Dag.size dag in
  (* Seed with the best list-scheduling heuristic. *)
  let start =
    List.fold_left
      (fun (best_order, best_cost) strategy ->
        let order = linearize strategy dag in
        let cost = solve order in
        if cost < best_cost then (order, cost) else (best_order, best_cost))
      (let order = linearize Deterministic dag in
       (order, solve order))
      [ Heaviest_first; Lightest_first; Critical_path ]
  in
  let order = Array.of_list (fst start) in
  let best_cost = ref (snd start) in
  if n >= 2 then
    for _ = 1 to iterations do
      let i = Ckpt_prng.Rng.int rng (n - 1) in
      (* Adjacent transposition is precedence-preserving iff there is no
         edge from order.(i) to order.(i+1). *)
      if not (List.mem order.(i + 1) (Dag.successors dag order.(i))) then begin
        let swap () =
          let tmp = order.(i) in
          order.(i) <- order.(i + 1);
          order.(i + 1) <- tmp
        in
        swap ();
        let cost = solve (Array.to_list order) in
        if cost < !best_cost then best_cost := cost else swap ()
      end
    done;
  let final_order = Array.to_list order in
  let problem =
    chain_of_linearization ?downtime ?initial_recovery ?cost_model ~lambda dag final_order
  in
  let dp = Chain_dp.plan problem in
  {
    order = final_order;
    placement = dp.Chain_dp.schedule;
    expected_makespan = dp.Chain_dp.expected_makespan;
  }

let solve_heuristic ?downtime ?initial_recovery ?cost_model ?(strategies = all_strategies)
    ~lambda dag =
  match strategies with
  | [] -> invalid_arg "Dag_sched.solve_heuristic: no strategies"
  | first :: rest ->
      let solve strategy =
        solve_order ?downtime ?initial_recovery ?cost_model ~lambda dag
          (linearize strategy dag)
      in
      List.fold_left
        (fun best strategy ->
          let candidate = solve strategy in
          if candidate.expected_makespan < best.expected_makespan then candidate else best)
        (solve first) rest
