module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Metrics = Ckpt_obs.Metrics

let cache_hits = Metrics.counter "serve.cache_hits"
let cache_misses = Metrics.counter "serve.cache_misses"
let cache_evictions = Metrics.counter "serve.cache_evictions"

(* Canonical form: every time quantity divided by the total work W (and
   λ multiplied by it). Power-of-two rescalings of a problem produce
   bit-identical canonical floats — x·2^k / (W·2^k) rounds exactly like
   x/W — so hashing the IEEE-754 bits keys them identically without any
   tolerance machinery. The bits are injective on non-NaN floats (and
   Task.make / Chain_problem.make reject NaN), so two problems share a
   digest exactly when their canonical forms are equal. *)
type key = { digest : Digest.t; total_work : float }

let key problem =
  let tasks = problem.Chain_problem.tasks in
  let n = Array.length tasks in
  let w_total = Chain_problem.total_work problem in
  let buf = Bytes.create (8 * ((3 * n) + 4)) in
  let[@inline] put slot x = Bytes.set_int64_le buf (8 * slot) (Int64.bits_of_float x) in
  Bytes.set_int64_le buf 0 (Int64.of_int n);
  put 1 (problem.Chain_problem.lambda *. w_total);
  put 2 (problem.Chain_problem.downtime /. w_total);
  put 3 (problem.Chain_problem.initial_recovery /. w_total);
  for i = 0 to n - 1 do
    let task = tasks.(i) in
    let slot = 4 + (3 * i) in
    put slot (task.Ckpt_dag.Task.work /. w_total);
    put (slot + 1) (task.Ckpt_dag.Task.checkpoint_cost /. w_total);
    put (slot + 2) (task.Ckpt_dag.Task.recovery_cost /. w_total)
  done;
  { digest = Digest.bytes buf; total_work = w_total }

let canonical_key problem = Digest.to_hex (key problem).digest

type entry = {
  checkpoints_after : int list;
  canonical_makespan : float;  (* expectation of the W = 1 rescaling *)
  stored_total_work : float;
  stored_makespan : float;
  mutable last_used : int;
}

type t = {
  lock : Mutex.t;
  table : (Digest.t, entry) Hashtbl.t;
  cap : int;
  mutable tick : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  let table =
    (Hashtbl.create capacity
      [@lint.domain_safe "mutex-held: every access is under t.lock"])
  in
  { lock = Mutex.create (); table; cap = capacity; tick = 0 }

type hit = { checkpoints_after : int list; expected_makespan : float; exact : bool }

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key.digest with
      | None ->
          Metrics.incr cache_misses;
          None
      | Some entry ->
          Metrics.incr cache_hits;
          t.tick <- t.tick + 1;
          entry.last_used <- t.tick;
          let exact = Float.equal key.total_work entry.stored_total_work in
          let expected_makespan =
            if exact then entry.stored_makespan
            else entry.canonical_makespan *. key.total_work
          in
          Some { checkpoints_after = entry.checkpoints_after; expected_makespan; exact })

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best <= entry.last_used -> acc
        | _ -> Some (key, entry.last_used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      Metrics.incr cache_evictions
  | None -> ()

let store t key (solution : Chain_dp.solution) =
  Mutex.protect t.lock (fun () ->
      t.tick <- t.tick + 1;
      if not (Hashtbl.mem t.table key.digest) && Hashtbl.length t.table >= t.cap then
        evict_lru t;
      Hashtbl.replace t.table key.digest
        {
          checkpoints_after = Schedule.checkpoint_indices solution.Chain_dp.schedule;
          canonical_makespan = solution.Chain_dp.expected_makespan /. key.total_work;
          stored_total_work = key.total_work;
          stored_makespan = solution.Chain_dp.expected_makespan;
          last_used = t.tick;
        })

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let capacity t = t.cap
