let check_size what n max_size =
  if n > max_size then
    invalid_arg
      (Printf.sprintf "Brute_force.%s: instance size %d exceeds the guard %d" what n
         max_size)

let placement_of_mask n mask =
  Array.init n (fun i -> if i = n - 1 then true else mask land (1 lsl i) <> 0)

let chain_all_unsorted problem =
  let n = Chain_problem.size problem in
  List.init
    (1 lsl (n - 1))
    (fun mask ->
      let schedule = Schedule.make problem (placement_of_mask n mask) in
      (schedule, Schedule.expected_makespan schedule))

(* Streams over the 2^(n-1) masks without materializing them: at the
   default guard of 22 tasks the placement list alone would be hundreds
   of megabytes. *)
let chain_best ?(max_size = 22) problem =
  let n = Chain_problem.size problem in
  check_size "chain_best" n max_size;
  let best_cost = ref infinity and best_mask = ref 0 in
  for mask = 0 to (1 lsl (n - 1)) - 1 do
    let schedule = Schedule.make problem (placement_of_mask n mask) in
    let cost = Schedule.expected_makespan schedule in
    if cost < !best_cost then begin
      best_cost := cost;
      best_mask := mask
    end
  done;
  {
    Chain_dp.expected_makespan = !best_cost;
    schedule = Schedule.make problem (placement_of_mask n !best_mask);
  }

let chain_all problem =
  let n = Chain_problem.size problem in
  (* Tighter guard than [chain_best]: this one materializes every
     placement by contract. *)
  check_size "chain_all" n 18;
  List.sort (fun (_, a) (_, b) -> compare a b) (chain_all_unsorted problem)

let partition_best ?(max_size = 16) ~lambda ~checkpoint ~recovery ~downtime works =
  let n = Array.length works in
  if n = 0 then invalid_arg "Brute_force.partition_best: empty instance";
  check_size "partition_best" n max_size;
  if not (lambda > 0.0) then invalid_arg "Brute_force.partition_best: lambda must be positive";
  let full = (1 lsl n) - 1 in
  (* Work of every subset, by lowest-set-bit recurrence. *)
  let subset_work = Array.make (full + 1) 0.0 in
  for mask = 1 to full do
    let bit = mask land -mask in
    let i =
      (* index of the lowest set bit *)
      let rec find k = if bit = 1 lsl k then k else find (k + 1) in
      find 0
    in
    subset_work.(mask) <- subset_work.(mask lxor bit) +. works.(i)
  done;
  let segment_cost mask =
    Expected_time.expected_v ~work:subset_work.(mask) ~checkpoint ~downtime
      ~recovery ~lambda
  in
  let best = Array.make (full + 1) infinity in
  best.(0) <- 0.0;
  (* best.(s) = optimal cost to execute exactly the tasks of s. Iterate
     all non-empty sub-masks g of s containing s's lowest bit (fixing
     the lowest remaining task in the next segment avoids counting each
     partition multiple times). *)
  for s = 1 to full do
    let low = s land -s in
    let g = ref s in
    while !g <> 0 do
      if !g land low <> 0 then begin
        let candidate = best.(s lxor !g) +. segment_cost !g in
        if candidate < best.(s) then best.(s) <- candidate
      end;
      g := (!g - 1) land s
    done
  done;
  best.(full)

let rec insert_everywhere x l =
  match l with
  | [] -> [ [ x ] ]
  | head :: tail ->
      (x :: l) :: List.map (fun rest -> head :: rest) (insert_everywhere x tail)

let rec permutations l =
  match l with
  | [] -> [ [] ]
  | head :: tail -> List.concat_map (insert_everywhere head) (permutations tail)

let independent_exhaustive ?(max_size = 8) ?(downtime = 0.0) ?(initial_recovery = 0.0)
    ~lambda task_list =
  let n = List.length task_list in
  if n = 0 then invalid_arg "Brute_force.independent_exhaustive: empty instance";
  check_size "independent_exhaustive" n max_size;
  let best = ref None in
  List.iter
    (fun order ->
      let problem = Chain_problem.make ~downtime ~initial_recovery ~lambda order in
      (* The exhaustive oracle places checkpoints with the oracle sweep,
         not Chain_dp.plan, so it shares no code path with what it checks. *)
      let solution = Chain_dp.solve problem in
      match !best with
      | Some (best_cost, _) when best_cost <= solution.Chain_dp.expected_makespan -> ()
      | _ -> best := Some (solution.Chain_dp.expected_makespan, solution.Chain_dp.schedule))
    (permutations task_list);
  match !best with None -> assert false | Some (cost, schedule) -> (cost, schedule)
