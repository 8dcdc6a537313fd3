type workload = Perfectly_parallel | Amdahl of float | Numerical_kernel of float

type overhead = Proportional of float | Constant of float

type scenario = {
  total_work : float;
  workload : workload;
  overhead : overhead;
  proc_rate : float;
  downtime : float;
}

let check_models fn workload overheads =
  (match workload with
  | Perfectly_parallel -> ()
  | Amdahl gamma ->
      if not (gamma >= 0.0 && gamma < 1.0) then
        invalid_arg (fn ^ ": Amdahl gamma must lie in [0,1)")
  | Numerical_kernel gamma ->
      if not (gamma > 0.0) then invalid_arg (fn ^ ": kernel gamma must be positive"));
  List.iter
    (function
      | Proportional alpha_v | Constant alpha_v ->
          if not (alpha_v > 0.0) then
            invalid_arg (fn ^ ": checkpoint volume must be positive"))
    overheads

let scenario ?(downtime = 0.0) ~total_work ~workload ~overhead ~proc_rate () =
  if not (total_work > 0.0) then invalid_arg "Moldable.scenario: total_work must be positive";
  if not (proc_rate > 0.0) then invalid_arg "Moldable.scenario: proc_rate must be positive";
  if downtime < 0.0 then invalid_arg "Moldable.scenario: downtime must be non-negative";
  check_models "Moldable.scenario" workload [ overhead ];
  { total_work; workload; overhead; proc_rate; downtime }

let check_p p = if p < 1 then invalid_arg "Moldable: p must be >= 1"

let work_of ~workload ~total_work ~p =
  check_p p;
  let pf = float_of_int p in
  match workload with
  | Perfectly_parallel -> total_work /. pf
  | Amdahl gamma -> ((1.0 -. gamma) *. total_work /. pf) +. (gamma *. total_work)
  | Numerical_kernel gamma ->
      (total_work /. pf) +. (gamma *. (total_work ** (2.0 /. 3.0)) /. sqrt pf)

let cost_of overhead ~p =
  check_p p;
  match overhead with
  | Proportional alpha_v -> alpha_v /. float_of_int p
  | Constant alpha_v -> alpha_v

let work t ~p = work_of ~workload:t.workload ~total_work:t.total_work ~p
let checkpoint_cost t ~p = cost_of t.overhead ~p

let lambda t ~p =
  check_p p;
  float_of_int p *. t.proc_rate

let expected_time t ~p =
  let c = checkpoint_cost t ~p in
  Approximations.optimal_divisible ~total_work:(work t ~p) ~checkpoint:c
    ~downtime:t.downtime ~recovery:c ~lambda:(lambda t ~p)

let sweep t ~ps = List.map (fun p -> (p, expected_time t ~p)) ps

let optimal_processors t ~max_p =
  if max_p < 1 then invalid_arg "Moldable.optimal_processors: max_p must be >= 1";
  let best = ref (1, expected_time t ~p:1) in
  for p = 2 to max_p do
    let candidate = expected_time t ~p in
    let _, best_d = !best in
    if candidate.Approximations.expected_total < best_d.Approximations.expected_total then
      best := (p, candidate)
  done;
  !best

let workload_to_string w =
  match w with
  | Perfectly_parallel -> "perfectly-parallel"
  | Amdahl gamma -> Printf.sprintf "Amdahl(gamma=%g)" gamma
  | Numerical_kernel gamma -> Printf.sprintf "kernel(gamma=%g)" gamma

let overhead_to_string o =
  match o with
  | Proportional alpha_v -> Printf.sprintf "proportional(C=%g/p)" alpha_v
  | Constant alpha_v -> Printf.sprintf "constant(C=%g)" alpha_v
