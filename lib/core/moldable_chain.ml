module Task = Ckpt_dag.Task

type task = {
  name : string;
  total_work : float;
  workload : Moldable.workload;
  checkpoint : Moldable.overhead;
  recovery : Moldable.overhead;
}

let task_counter = Atomic.make 0

let task ?name ?(workload = Moldable.Perfectly_parallel) ?recovery ~total_work ~checkpoint
    () =
  if not (total_work > 0.0) then invalid_arg "Moldable_chain.task: total_work must be positive";
  let recovery = match recovery with Some r -> r | None -> checkpoint in
  Moldable.check_models "Moldable_chain.task" workload [ checkpoint; recovery ];
  let id = Atomic.fetch_and_add task_counter 1 + 1 in
  let name = match name with Some n -> n | None -> Printf.sprintf "M%d" id in
  { name; total_work; workload; checkpoint; recovery }

type problem = {
  tasks : task array;
  max_processors : int;
  proc_rate : float;
  downtime : float;
  initial_recovery : float;
  candidates : int list;
}

let default_candidates max_processors =
  let rec powers acc p = if p > max_processors then acc else powers (p :: acc) (2 * p) in
  let base = powers [] 1 in
  List.sort_uniq compare (max_processors :: base)

let problem ?(downtime = 0.0) ?(initial_recovery = 0.0) ?candidates ~max_processors
    ~proc_rate task_list =
  if task_list = [] then invalid_arg "Moldable_chain.problem: empty chain";
  if max_processors < 1 then
    invalid_arg "Moldable_chain.problem: max_processors must be >= 1";
  if not (proc_rate > 0.0) then
    invalid_arg "Moldable_chain.problem: proc_rate must be positive";
  if downtime < 0.0 || initial_recovery < 0.0 then
    invalid_arg "Moldable_chain.problem: negative durations";
  let candidates =
    match candidates with
    | None -> default_candidates max_processors
    | Some list ->
        if list = [] then invalid_arg "Moldable_chain.problem: no candidate allocations";
        List.iter
          (fun p ->
            if p < 1 || p > max_processors then
              invalid_arg "Moldable_chain.problem: candidate out of range")
          list;
        List.sort_uniq compare list
  in
  { tasks = Array.of_list task_list; max_processors; proc_rate; downtime;
    initial_recovery; candidates }

let lambda_at t p = float_of_int p *. t.proc_rate

(* prefix.(i) = W(p) summed over tasks 0..i-1, at a fixed allocation:
   keeps each segment evaluation O(1) inside the O(n²·|candidates|²)
   dynamic program. *)
let prefix_work_at t ~p =
  let n = Array.length t.tasks in
  let prefix = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <-
      prefix.(i)
      +. Moldable.work_of ~workload:t.tasks.(i).workload
           ~total_work:t.tasks.(i).total_work ~p
  done;
  prefix

(* Expected segment durations (Prop 1) at a fixed allocation go through
   the Segment_cost kernel: one table set per candidate p turns the
   growth factor e^(λ(p)(W+C)) − 1 into multiplications. The recovery
   factor e^(λ(p)R)·(1/λ(p) + D) depends on the DP state (the recovery
   cost is the previous segment's, not a function of position), so the
   kernels are built without it and the solver hoists it to one
   evaluation per (state, allocation) pair. *)
let kernel_at t ~prefix ~p =
  Segment_cost.create ~lambda:(lambda_at t p) ~downtime:t.downtime ~prefix_work:prefix
    ~checkpoint_costs:
      (Array.map (fun (task : task) -> Moldable.cost_of task.checkpoint ~p) t.tasks)
    ~recovery_costs:(Array.make (Array.length t.tasks) 0.0)

type solution = {
  expected_makespan : float;
  segments : (int * int * int) list;
}

let solve t =
  let n = Array.length t.tasks in
  let candidates = Array.of_list t.candidates in
  let n_cand = Array.length candidates in
  let width = n_cand + 1 in
  (* value.(x·width + c): optimal expectation for tasks x.. given that
     the last checkpoint before x was written at allocation
     candidates.(c) (c = n_cand means "no checkpoint yet": initial
     recovery). Recovery cost of the first segment starting at x is
     determined by (x, c). Tables are flat structure-of-arrays on
     Bigarray (Dp_tables) — the boxed (int * int) choice matrix of the
     original formulation is split into two int tables. *)
  let value = Dp_tables.floats ~init:infinity ((n + 1) * width) in
  let choice_j = Dp_tables.ints ~init:(-1) (n * width) in
  let choice_pc = Dp_tables.ints ~init:(-1) (n * width) in
  let prefixes = Array.map (fun p -> prefix_work_at t ~p) candidates in
  let kernels =
    Array.mapi (fun pc p -> kernel_at t ~prefix:prefixes.(pc) ~p) candidates
  in
  for c = 0 to n_cand do
    Dp_tables.fset value ((n * width) + c) 0.0
  done;
  (* rec_factor.(pc) = e^(λ(p)·R)·(1/λ(p) + D) for the state's recovery
     cost R: n_cand exp evaluations per state instead of one per
     transition. *)
  let rec_factor = Array.make n_cand 0.0 in
  for x = n - 1 downto 0 do
    for c = 0 to n_cand do
      let recovery =
        if x = 0 || c = n_cand then t.initial_recovery
        else Moldable.cost_of t.tasks.(x - 1).recovery ~p:candidates.(c)
      in
      for pc = 0 to n_cand - 1 do
        let lambda = lambda_at t candidates.(pc) in
        rec_factor.(pc) <- exp (lambda *. recovery) *. ((1.0 /. lambda) +. t.downtime)
      done;
      (* Leftmost lexicographic-(j, pc) strict-< scan over every
         decision. *)
      let best = ref infinity and best_j = ref (-1) and best_pc = ref (-1) in
      for j = x to n - 1 do
        for pc = 0 to n_cand - 1 do
          let cost =
            (rec_factor.(pc) *. Segment_cost.growth_unsafe kernels.(pc) ~first:x ~last:j)
            +. Dp_tables.fget value (((j + 1) * width) + pc)
          in
          if cost < !best then begin
            best := cost;
            best_j := j;
            best_pc := pc
          end
        done
      done;
      Dp_tables.fset value ((x * width) + c) !best;
      Dp_tables.iset choice_j ((x * width) + c) !best_j;
      Dp_tables.iset choice_pc ((x * width) + c) !best_pc
    done
  done;
  let rec rebuild acc x c =
    if x = n then List.rev acc
    else begin
      let j = Dp_tables.iget choice_j ((x * width) + c) in
      let pc = Dp_tables.iget choice_pc ((x * width) + c) in
      rebuild ((x, j, candidates.(pc)) :: acc) (j + 1) pc
    end
  in
  {
    expected_makespan = Dp_tables.fget value n_cand;
    segments = rebuild [] 0 n_cand;
  }

let chain_at t ~processors =
  if not (List.mem processors t.candidates) then
    invalid_arg "Moldable_chain.chain_at: allocation is not a candidate";
  let tasks =
    Array.to_list
      (Array.mapi
         (fun i (task : task) ->
           Task.make ~id:i ~name:task.name
             ~work:(Moldable.work_of ~workload:task.workload ~total_work:task.total_work
                      ~p:processors)
             ~checkpoint_cost:(Moldable.cost_of task.checkpoint ~p:processors)
             ~recovery_cost:(Moldable.cost_of task.recovery ~p:processors)
             ())
         t.tasks)
  in
  Chain_problem.make ~downtime:t.downtime ~initial_recovery:t.initial_recovery
    ~lambda:(lambda_at t processors) tasks

let solve_fixed_allocation t ~processors = Chain_dp.plan (chain_at t ~processors)

let best_fixed_allocation t =
  match t.candidates with
  | [] -> assert false
  | first :: rest ->
      List.fold_left
        (fun (best_p, best_solution) p ->
          let solution = solve_fixed_allocation t ~processors:p in
          if solution.Chain_dp.expected_makespan
             < best_solution.Chain_dp.expected_makespan
          then (p, solution)
          else (best_p, best_solution))
        (first, solve_fixed_allocation t ~processors:first)
        rest
