(* The serve-mix request stream: a seeded open-loop schedule of framed
   ckpt-serve requests, every frame encoded before the run starts.

   Arrivals form a Poisson process conditioned on its count: [count]
   uniform instants over the stream, sorted. Most requests are
   plan_chain. About half of those repeat a recently sent instance,
   exactly or rescaled by 2^k, so they hit the plan cache; the rest are
   new instances whose sizes are log-uniform over 16..2048 tasks. A few
   percent of the new instances break the SMAWK certificate (a
   checkpoint-cost cliff larger than any task weight) and fall back to
   the exhaustive solver.

   Every chain has integer task weights summing to a power of two, so
   its total work is exact in floating point. A cache hit at another
   scale is then answered with exactly 2^k times the stored makespan,
   which is what the offline check demands. *)

module Rng = Ckpt_prng.Rng
module Json = Ckpt_json.Json
module Protocol = Ckpt_serve.Protocol
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem

type instance = {
  lambda : float;
  downtime : float;
  initial_recovery : float;
  work : float array;
  checkpoint : float array;
  recovery : float array;
}

type body =
  | Ping
  | Chain of { base : int; scale : int }
      (** [bases.(base)] with every duration times 2^scale and λ divided
          by it. *)
  | Other  (** plan_independent or plan_moldable. *)

type request = {
  index : int;
  method_ : string;
  at_ns : int64;  (** Intended send time, from the start of the stream. *)
  body : body;
  frame : string;  (** Length prefix + JSON payload. *)
}

type t = { requests : request array; bases : instance array }

(* The offered load, set once from the capacity of ckpt-serve at the
   commit that introduced this benchmark (see perfbench/NOTES.md): about
   half of it. A request counts toward goodput only when it is answered
   ok within [latency_limit_ms] of its intended send time. *)
let rate = 100.0
let latency_limit_ms = 100.0

(* Traffic shares. *)
let p_ping = 0.02
let p_independent = 0.03
let p_moldable = 0.02
let p_repeat = 0.5
let p_rescale = 0.5
let p_non_monge = 0.04

(* A repeat picks one of the [recent] newest instances whose first
   request was due at least [repeat_gap_s] earlier — the latency limit —
   so its first answer is in the cache by the time the repeat arrives.
   [recent] is far below the cache capacity, so LRU eviction never
   reaches a base a repeat can still pick. *)
let recent = 256
let repeat_gap_s = latency_limit_ms /. 1e3

let id_of index = "r" ^ string_of_int index

let index_of_id id =
  if String.length id > 1 && id.[0] = 'r' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

let payload request = String.sub request.frame 4 (String.length request.frame - 4)

let size inst = Array.length inst.work

let scaled inst k =
  if k = 0 then inst
  else
    let s x = Float.ldexp x k in
    {
      lambda = Float.ldexp inst.lambda (-k);
      downtime = s inst.downtime;
      initial_recovery = s inst.initial_recovery;
      work = Array.map s inst.work;
      checkpoint = Array.map s inst.checkpoint;
      recovery = Array.map s inst.recovery;
    }

let tasks inst =
  List.init (size inst) (fun i ->
      Task.make ~id:i ~work:inst.work.(i) ~checkpoint_cost:inst.checkpoint.(i)
        ~recovery_cost:inst.recovery.(i) ())

let make inst tasks =
  Chain_problem.make ~downtime:inst.downtime ~initial_recovery:inst.initial_recovery
    ~lambda:inst.lambda tasks

let problem inst = make inst (tasks inst)

let chain_params inst =
  Json.Obj
    [
      ("lambda", Json.Number inst.lambda);
      ("downtime", Json.Number inst.downtime);
      ("initial_recovery", Json.Number inst.initial_recovery);
      ( "tasks",
        Json.List
          (List.init (size inst) (fun i ->
               Json.Obj
                 [
                   ("work", Json.Number inst.work.(i));
                   ("checkpoint", Json.Number inst.checkpoint.(i));
                   ("recovery", Json.Number inst.recovery.(i));
                 ])) );
    ]

let log_uniform_int rng lo hi =
  let x = exp (Rng.float_range rng (log (float_of_int lo)) (log (float_of_int (hi + 1)))) in
  Stdlib.min hi (Stdlib.max lo (int_of_float x))

let rec pow2_at_least ?(p = 1) s = if p >= s then p else pow2_at_least ~p:(2 * p) s

let new_instance rng ~monge =
  let n = log_uniform_int rng 16 (if monge then 2048 else 512) in
  let units = Array.init n (fun _ -> 1 + Rng.int rng 16) in
  let sum = Array.fold_left ( + ) 0 units in
  let total = pow2_at_least sum in
  let q = (total - sum) / n and r = (total - sum) mod n in
  let work = Array.mapi (fun i u -> float_of_int (u + q + if i < r then 1 else 0)) units in
  (* Costs vary by less than the smallest weight (1), so the SMAWK
     certificate holds... *)
  let checkpoint = Array.init n (fun _ -> Rng.float_range rng 1.0 1.9) in
  let recovery = Array.init n (fun _ -> Rng.float_range rng 1.0 1.9) in
  (* ...unless a checkpoint-cost cliff larger than any weight breaks it. *)
  if not monge then checkpoint.(Rng.int rng (n - 1)) <- 64.0 +. Rng.float rng;
  {
    lambda = exp (Rng.float_range rng (log 2.0) (log 200.0)) /. float_of_int total;
    downtime = Rng.float_range rng 0.0 2.0;
    initial_recovery = Rng.float_range rng 0.0 2.0;
    work;
    checkpoint;
    recovery;
  }

let independent_params rng =
  let n = 8 + Rng.int rng 41 in
  Json.Obj
    [
      ("lambda", Json.Number (Rng.float_range rng 1.0 20.0 /. (5.5 *. float_of_int n)));
      ("downtime", Json.Number (Rng.float_range rng 0.0 1.0));
      ( "tasks",
        Json.List
          (List.init n (fun _ ->
               Json.Obj
                 [
                   ("work", Json.Number (Rng.float_range rng 1.0 10.0));
                   ("checkpoint", Json.Number (Rng.float_range rng 0.1 1.0));
                   ("recovery", Json.Number (Rng.float_range rng 0.1 1.0));
                 ])) );
    ]

let moldable_params rng =
  let n = 4 + Rng.int rng 7 in
  let workload () =
    match Rng.int rng 3 with
    | 0 -> Json.Obj [ ("model", Json.String "perfect") ]
    | 1 -> Json.Obj [ ("model", Json.String "amdahl"); ("gamma", Json.Number 0.02) ]
    | _ -> Json.Obj [ ("model", Json.String "numerical"); ("gamma", Json.Number 0.1) ]
  in
  Json.Obj
    [
      ("proc_rate", Json.Number (Rng.float_range rng 1e-6 1e-5));
      ("downtime", Json.Number (Rng.float_range rng 1.0 5.0));
      ("max_processors", Json.Number 64.0);
      ( "tasks",
        Json.List
          (List.init n (fun _ ->
               Json.Obj
                 [
                   ("total_work", Json.Number (Rng.float_range rng 1000.0 4000.0));
                   ( "checkpoint",
                     Json.Obj
                       [
                         ("model", Json.String "proportional");
                         ("alpha_v", Json.Number (Rng.float_range rng 20.0 80.0));
                       ] );
                   ("workload", workload ());
                 ])) );
    ]

let frame ~index ~method_ params =
  Protocol.Framing.encode
    (Json.to_string
       (Protocol.request_to_json { Protocol.id = id_of index; method_; timeout_ms = None; params }))

let generate ~seed ~span_s =
  let root = Rng.create ~seed:(Int64.of_int seed) in
  let arrivals = Rng.substream root "serve-mix.arrivals" in
  let rng = Rng.substream root "serve-mix.bodies" in
  let count = Stdlib.max 1 (int_of_float (Float.round (rate *. span_s))) in
  let at = Array.init count (fun _ -> Rng.float arrivals *. span_s) in
  Array.sort Float.compare at;
  let bases = Array.make count None in
  let first_at = Array.make count 0.0 in
  let n_bases = ref 0 in
  let new_base index ~monge =
    let b = !n_bases in
    bases.(b) <- Some (new_instance rng ~monge);
    first_at.(b) <- at.(index);
    incr n_bases;
    b
  in
  (* The recent bases first due at least [repeat_gap_s] ago, if any. *)
  let eligible index =
    let lo = Stdlib.max 0 (!n_bases - recent) in
    let hi = ref (!n_bases - 1) in
    while !hi >= lo && first_at.(!hi) > at.(index) -. repeat_gap_s do
      decr hi
    done;
    if !hi >= lo then Some (lo, !hi) else None
  in
  let base_of b = match bases.(b) with Some inst -> inst | None -> assert false in
  let requests =
    Array.init count (fun index ->
        let at_ns = Int64.of_float (at.(index) *. 1e9) in
        let make method_ body params =
          { index; method_; at_ns; body; frame = frame ~index ~method_ params }
        in
        let u = Rng.float rng in
        if u < p_ping then make "ping" Ping Json.Null
        else if u < p_ping +. p_independent then
          make "plan_independent" Other (independent_params rng)
        else if u < p_ping +. p_independent +. p_moldable then
          make "plan_moldable" Other (moldable_params rng)
        else
          let base, scale =
            match (Rng.float rng < p_repeat, eligible index) with
            | true, Some (lo, hi) ->
                let b = lo + Rng.int rng (hi - lo + 1) in
                let k =
                  if Rng.float rng < p_rescale then
                    let k = 1 + Rng.int rng 3 in
                    if Rng.bool rng then k else -k
                  else 0
                in
                (b, k)
            | _ -> (new_base index ~monge:(Rng.float rng >= p_non_monge), 0)
          in
          make "plan_chain" (Chain { base; scale }) (chain_params (scaled (base_of base) scale)))
  in
  { requests; bases = Array.init !n_bases base_of }
