type id = int

type t = {
  id : id;
  name : string;
  work : float;
  checkpoint_cost : float;
  recovery_cost : float;
}

let make ~id ?name ~work ?(checkpoint_cost = 0.0) ?(recovery_cost = 0.0) () =
  if id < 0 then invalid_arg "Task.make: id must be non-negative";
  if not (work > 0.0) then invalid_arg "Task.make: work must be positive";
  (* Written as not (x >= 0) so that NaN is rejected too. *)
  if not (checkpoint_cost >= 0.0) then
    invalid_arg "Task.make: checkpoint_cost must be non-negative";
  if not (recovery_cost >= 0.0) then
    invalid_arg "Task.make: recovery_cost must be non-negative";
  let name = match name with Some n -> n | None -> "T" ^ string_of_int (id + 1) in
  { id; name; work; checkpoint_cost; recovery_cost }

let with_costs t ~checkpoint_cost ~recovery_cost =
  if not (checkpoint_cost >= 0.0 && recovery_cost >= 0.0) then
    invalid_arg "Task.with_costs: costs must be non-negative";
  { t with checkpoint_cost; recovery_cost }

let with_id t id =
  if id < 0 then invalid_arg "Task.with_id: id must be non-negative";
  if id = t.id then t else { t with id }

let equal a b = a.id = b.id && a.name = b.name && a.work = b.work
  && a.checkpoint_cost = b.checkpoint_cost && a.recovery_cost = b.recovery_cost

let compare a b = Stdlib.compare a.id b.id

let to_string t =
  Printf.sprintf "%s(id=%d, w=%g, C=%g, R=%g)" t.name t.id t.work t.checkpoint_cost
    t.recovery_cost

let pp fmt t = Format.pp_print_string fmt (to_string t)
