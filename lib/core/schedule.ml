module Task = Ckpt_dag.Task

type t = { problem : Chain_problem.t; placement : bool array }

let make problem placement =
  let n = Chain_problem.size problem in
  if Array.length placement <> n then
    invalid_arg "Schedule.make: placement length differs from chain size";
  if not placement.(n - 1) then
    invalid_arg "Schedule.make: the final task must be checkpointed";
  { problem; placement = Array.copy placement }

let of_indices problem indices =
  let n = Chain_problem.size problem in
  let placement = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Schedule.of_indices: index out of range";
      placement.(i) <- true)
    indices;
  placement.(n - 1) <- true;
  make problem placement

let of_first_segment_ends problem choice =
  let n = Chain_problem.size problem in
  let placement = Array.make n false in
  let rec mark x =
    if x < n then begin
      let j = choice x in
      if j < x || j >= n then
        invalid_arg "Schedule.of_first_segment_ends: a segment from x must end in [x, n - 1]";
      placement.(j) <- true;
      mark (j + 1)
    end
  in
  mark 0;
  { problem; placement }

let checkpoint_all problem =
  make problem (Array.make (Chain_problem.size problem) true)

let checkpoint_none problem =
  let placement = Array.make (Chain_problem.size problem) false in
  placement.(Chain_problem.size problem - 1) <- true;
  make problem placement

let every_k problem k =
  if k < 1 then invalid_arg "Schedule.every_k: k must be >= 1";
  let n = Chain_problem.size problem in
  let placement = Array.init n (fun i -> (i + 1) mod k = 0) in
  placement.(n - 1) <- true;
  make problem placement

let by_work_threshold problem ~threshold =
  if not (threshold > 0.0) then
    invalid_arg "Schedule.by_work_threshold: threshold must be positive";
  let n = Chain_problem.size problem in
  let placement = Array.make n false in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (Chain_problem.segment_work problem ~first:i ~last:i);
    if !acc >= threshold then begin
      placement.(i) <- true;
      acc := 0.0
    end
  done;
  placement.(n - 1) <- true;
  make problem placement

let mean_checkpoint_cost (problem : Chain_problem.t) =
  let tasks = problem.Chain_problem.tasks in
  Array.fold_left (fun acc task -> acc +. task.Task.checkpoint_cost) 0.0 tasks
  /. float_of_int (Array.length tasks)

let period_schedule problem period_fn =
  let mtbf = 1.0 /. problem.Chain_problem.lambda in
  let checkpoint = mean_checkpoint_cost problem in
  let period = period_fn ~checkpoint ~mtbf in
  if period <= 0.0 then checkpoint_all problem
  else by_work_threshold problem ~threshold:period

let young problem = period_schedule problem Approximations.young_period
let daly problem = period_schedule problem Approximations.daly_period

let segments t =
  let n = Array.length t.placement in
  let rec collect acc first i =
    if i = n then List.rev acc
    else if t.placement.(i) then collect ((first, i) :: acc) (i + 1) (i + 1)
    else collect acc first (i + 1)
  in
  collect [] 0 0

let checkpoint_count t =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.placement

let checkpoint_indices t =
  let acc = ref [] in
  for i = Array.length t.placement - 1 downto 0 do
    if t.placement.(i) then acc := i :: !acc
  done;
  !acc

let expected_makespan t =
  (* Segments come from a placement validated at construction:
     straight to the kernel. *)
  let kernel = Chain_problem.kernel t.problem in
  let acc = Ckpt_stats.Kahan.create () in
  List.iter
    (fun (first, last) -> Ckpt_stats.Kahan.add acc (Segment_cost.cost kernel ~first ~last))
    (segments t);
  Ckpt_stats.Kahan.sum acc

let to_sim_segments t =
  let tasks = t.problem.Chain_problem.tasks in
  List.map
    (fun (first, last) ->
      Ckpt_sim.Sim_run.segment
        ~work:(Chain_problem.segment_work t.problem ~first ~last)
        ~checkpoint:tasks.(last).Task.checkpoint_cost
        ~recovery:(Chain_problem.recovery_before t.problem first))
    (segments t)

let decide_of t (ctx : Ckpt_sim.Sim_run.chain_context) =
  t.placement.(ctx.Ckpt_sim.Sim_run.task_index)

let equal a b = a.placement = b.placement

let to_string t =
  let tasks = t.problem.Chain_problem.tasks in
  let buf = Buffer.create 64 in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i (task : Task.t) ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf task.Task.name;
      if t.placement.(i) then Buffer.add_string buf " |")
    tasks;
  Buffer.add_char buf ']';
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
