module Task = Ckpt_dag.Task

type t = {
  tasks : Task.t array;
  lambda : float;
  downtime : float;
  initial_recovery : float;
  prefix_work : float array;
  kernel : Segment_cost.t;
}

(* One walk of the list fills the task array and every column of the
   kernel's input. Tasks are renumbered in list order; one that already
   carries its index comes back from with_id itself. *)
let make ?(downtime = 0.0) ?(initial_recovery = 0.0) ~lambda task_list =
  let n = List.length task_list in
  if n = 0 then invalid_arg "Chain_problem: empty chain";
  if not (lambda > 0.0 && Float.is_finite lambda) then
    invalid_arg "Chain_problem: lambda must be positive and finite";
  if not (downtime >= 0.0) then invalid_arg "Chain_problem: downtime must be non-negative";
  if not (initial_recovery >= 0.0) then
    invalid_arg "Chain_problem: initial_recovery must be non-negative";
  if not (Float.is_finite downtime && Float.is_finite initial_recovery) then
    invalid_arg "Chain_problem: downtime and initial_recovery must be finite";
  let tasks = Array.make n (List.hd task_list) in
  let prefix_work = Array.create_float (n + 1) in
  let checkpoint_costs = Array.create_float n and recovery_costs = Array.create_float n in
  prefix_work.(0) <- 0.0;
  (* A segment starting at i recovers with R0 at 0, else task i − 1's R. *)
  recovery_costs.(0) <- initial_recovery;
  let rec walk i = function
    | [] -> ()
    | task :: rest ->
        let task = Task.with_id task i in
        tasks.(i) <- task;
        prefix_work.(i + 1) <- prefix_work.(i) +. task.Task.work;
        checkpoint_costs.(i) <- task.Task.checkpoint_cost;
        if i + 1 < n then recovery_costs.(i + 1) <- task.Task.recovery_cost;
        walk (i + 1) rest
  in
  walk 0 task_list;
  (* Task costs are validated by Task.make (non-negative, not NaN),
     λ/D/R0 just above — the kernel's no-validation contract holds. *)
  let kernel =
    Segment_cost.create ~lambda ~downtime ~prefix_work ~checkpoint_costs ~recovery_costs
  in
  { tasks; lambda; downtime; initial_recovery; prefix_work; kernel }

let of_dag ?downtime ?initial_recovery ~lambda dag =
  match Ckpt_dag.Dag.is_chain dag with
  | None -> invalid_arg "Chain_problem.of_dag: DAG is not a linear chain"
  | Some chain_tasks -> make ?downtime ?initial_recovery ~lambda chain_tasks

let uniform ?(downtime = 0.0) ?initial_recovery ~lambda ~checkpoint ~recovery works =
  let initial_recovery =
    match initial_recovery with Some r0 -> r0 | None -> recovery
  in
  let tasks =
    List.mapi
      (fun i work ->
        Task.make ~id:i ~work ~checkpoint_cost:checkpoint ~recovery_cost:recovery ())
      works
  in
  make ~downtime ~initial_recovery ~lambda tasks

let size t = Array.length t.tasks
let total_work t = t.prefix_work.(size t)

let segment_work t ~first ~last =
  if first < 0 || last >= size t || first > last then
    invalid_arg "Chain_problem.segment_work: bad segment bounds";
  t.prefix_work.(last + 1) -. t.prefix_work.(first)

let recovery_before t x =
  if x < 0 || x >= size t then invalid_arg "Chain_problem.recovery_before: bad index";
  if x = 0 then t.initial_recovery else t.tasks.(x - 1).Task.recovery_cost

let kernel t = t.kernel

let segment_expected t ~first ~last =
  if first < 0 || last >= size t || first > last then
    invalid_arg "Chain_problem.segment_expected: bad segment bounds";
  Segment_cost.cost t.kernel ~first ~last

let with_lambda t lambda =
  make ~downtime:t.downtime ~initial_recovery:t.initial_recovery ~lambda
    (Array.to_list t.tasks)

let pp fmt t =
  Format.fprintf fmt "Chain(n=%d, W=%g, lambda=%g, D=%g, R0=%g)" (size t) (total_work t)
    t.lambda t.downtime t.initial_recovery
