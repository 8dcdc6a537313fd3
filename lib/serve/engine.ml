module Json = Ckpt_json.Json
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Independent = Ckpt_core.Independent
module Moldable = Ckpt_core.Moldable
module Moldable_chain = Ckpt_core.Moldable_chain
module Metrics = Ckpt_obs.Metrics
module Span = Ckpt_obs.Span

let requests_total = Metrics.counter "serve.requests"
let errors_total = Metrics.counter "serve.errors"

type t = { plan_cache : Plan_cache.t }

let create ~cache_capacity = { plan_cache = Plan_cache.create ~capacity:cache_capacity }
let cache t = t.plan_cache

(* --- param validation ----------------------------------------------- *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let obj_field name json =
  match Json.member name json with Some v -> Some v | None -> None

let req_field name json =
  match obj_field name json with
  | Some v -> v
  | None -> failf "params: missing field %S" name

let float_field name json =
  match Json.to_float (req_field name json) with
  | Some x -> x
  | None -> failf "params: field %S must be a number" name

let opt_float_field ?(default = 0.0) name json =
  match obj_field name json with
  | None -> default
  | Some v -> (
      match Json.to_float v with
      | Some x -> x
      | None -> failf "params: field %S must be a number" name)

let int_field name json =
  match Json.to_int (req_field name json) with
  | Some n -> n
  | None -> failf "params: field %S must be an integer" name

let list_field name json =
  match Json.to_list (req_field name json) with
  | Some l -> l
  | None -> failf "params: field %S must be an array" name

let json_float x = Json.Number x
let json_int n = Json.Number (float_of_int n)
let json_ints l = Json.List (List.map json_int l)

(* --- plan_chain ------------------------------------------------------ *)

let chain_tasks params =
  let tasks = list_field "tasks" params in
  if tasks = [] then failf "params: \"tasks\" must be non-empty";
  List.mapi
    (fun i task_json ->
      let work = float_field "work" task_json in
      let checkpoint_cost = opt_float_field "checkpoint" task_json in
      let recovery_cost = opt_float_field "recovery" task_json in
      try Task.make ~id:i ~work ~checkpoint_cost ~recovery_cost ()
      with Invalid_argument msg -> failf "params: tasks[%d]: %s" i msg)
    tasks

let chain_problem params =
  let lambda = float_field "lambda" params in
  let downtime = opt_float_field "downtime" params in
  let initial_recovery = opt_float_field "initial_recovery" params in
  let tasks = chain_tasks params in
  try Chain_problem.make ~downtime ~initial_recovery ~lambda tasks
  with Invalid_argument msg -> failf "params: %s" msg

let plan_chain t ~id params =
  let problem = chain_problem params in
  let key = Plan_cache.key problem in
  let cached = Plan_cache.find t.plan_cache key in
  let checkpoints_after, expected_makespan, cache_tag =
    match cached with
    | Some hit ->
        (hit.Plan_cache.checkpoints_after, hit.Plan_cache.expected_makespan, "hit")
    | None ->
        (* Bit-for-bit equal to Chain_dp.solve (the CI smoke checks
           served plans against that offline oracle), so cache keys and
           cached answers do not depend on the solver path. *)
        let solution = Chain_dp.plan problem in
        Plan_cache.store t.plan_cache key solution;
        ( Schedule.checkpoint_indices solution.Chain_dp.schedule,
          solution.Chain_dp.expected_makespan,
          "miss" )
  in
  Protocol.ok_response ~id ~cache:cache_tag
    (Json.Obj
       [
         ("n", json_int (Chain_problem.size problem));
         ("expected_makespan", json_float expected_makespan);
         ("checkpoints_after", json_ints checkpoints_after);
       ])

(* --- plan_independent ------------------------------------------------ *)

let ordering_name = function
  | Independent.As_given -> "as-given"
  | Independent.Shortest_first -> "shortest-first"
  | Independent.Longest_first -> "longest-first"
  | Independent.Random _ -> "random"

let plan_independent ~id params =
  let lambda = float_field "lambda" params in
  let downtime = opt_float_field "downtime" params in
  let initial_recovery = opt_float_field "initial_recovery" params in
  let tasks = chain_tasks params in
  let problem =
    try Independent.make ~downtime ~initial_recovery ~lambda tasks
    with Invalid_argument msg -> failf "params: %s" msg
  in
  let orderings =
    [ Independent.As_given; Independent.Shortest_first; Independent.Longest_first ]
  in
  let ordering, solution = Independent.best_ordered problem orderings in
  let order =
    Independent.order_tasks problem ordering
    |> List.map (fun task -> task.Task.id)
  in
  Protocol.ok_response ~id
    (Json.Obj
       [
         ("strategy", Json.String (ordering_name ordering));
         ("order", json_ints order);
         ("expected_makespan", json_float solution.Chain_dp.expected_makespan);
         ( "checkpoints_after",
           json_ints (Schedule.checkpoint_indices solution.Chain_dp.schedule) );
       ])

(* --- plan_moldable --------------------------------------------------- *)

let overhead_field name json =
  let v = req_field name json in
  let alpha_v = float_field "alpha_v" v in
  match Json.to_str (req_field "model" v) with
  | Some "proportional" -> Moldable.Proportional alpha_v
  | Some "constant" -> Moldable.Constant alpha_v
  | _ -> failf "params: %S.model must be \"proportional\" or \"constant\"" name

let workload_field json =
  match obj_field "workload" json with
  | None -> Moldable.Perfectly_parallel
  | Some v -> (
      match Json.to_str (req_field "model" v) with
      | Some "perfect" -> Moldable.Perfectly_parallel
      | Some "amdahl" -> Moldable.Amdahl (float_field "gamma" v)
      | Some "numerical" -> Moldable.Numerical_kernel (float_field "gamma" v)
      | _ ->
          failf
            "params: workload.model must be \"perfect\", \"amdahl\" or \"numerical\"")

let plan_moldable ~id params =
  let proc_rate = float_field "proc_rate" params in
  let downtime = opt_float_field "downtime" params in
  let initial_recovery = opt_float_field "initial_recovery" params in
  let max_processors = int_field "max_processors" params in
  let tasks =
    list_field "tasks" params
    |> List.mapi (fun i task_json ->
           let total_work = float_field "total_work" task_json in
           let checkpoint = overhead_field "checkpoint" task_json in
           let workload = workload_field task_json in
           let recovery =
             match obj_field "recovery" task_json with
             | None -> None
             | Some _ -> Some (overhead_field "recovery" task_json)
           in
           try Moldable_chain.task ?recovery ~workload ~total_work ~checkpoint ()
           with Invalid_argument msg -> failf "params: tasks[%d]: %s" i msg)
  in
  let problem =
    try
      Moldable_chain.problem ~downtime ~initial_recovery ~max_processors ~proc_rate
        tasks
    with Invalid_argument msg -> failf "params: %s" msg
  in
  let solution = Moldable_chain.solve problem in
  Protocol.ok_response ~id
    (Json.Obj
       [
         ("expected_makespan", json_float solution.Moldable_chain.expected_makespan);
         ( "segments",
           Json.List
             (List.map
                (fun (first, last, processors) ->
                  Json.Obj
                    [
                      ("first", json_int first);
                      ("last", json_int last);
                      ("processors", json_int processors);
                    ])
                solution.Moldable_chain.segments) );
       ])

(* --- dispatch -------------------------------------------------------- *)

let handle t (request : Protocol.request) =
  Metrics.incr requests_total;
  let id = request.Protocol.id in
  let params = request.Protocol.params in
  let respond () =
    match request.Protocol.method_ with
    | "ping" -> Protocol.ok_response ~id (Json.String "pong")
    | "plan_chain" -> plan_chain t ~id params
    | "plan_independent" -> plan_independent ~id params
    | "plan_moldable" -> plan_moldable ~id params
    | m -> Protocol.error_response ~id:(Some id) (Protocol.unknown_method m)
  in
  let response =
    Span.with_ ~name:("serve." ^ request.Protocol.method_) (fun () ->
        try respond () with
        | Bad msg -> Protocol.error_response ~id:(Some id) (Protocol.bad_request msg)
        | exn ->
            Protocol.error_response ~id:(Some id)
              (Protocol.internal (Printexc.to_string exn)))
  in
  (match Json.member "ok" response with
  | Some (Json.Bool false) -> Metrics.incr errors_total
  | _ -> ());
  response
