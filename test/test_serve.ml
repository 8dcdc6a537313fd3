(* The serving layer: framing, protocol grammar, the canonicalizing
   plan cache (λ·W scale invariance), bounded-queue backpressure, and
   the server lifecycle over a real loopback socket — including the
   drain guarantee: a stop under load answers every accepted request. *)

module Json = Ckpt_json.Json
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Protocol = Ckpt_serve.Protocol
module Framing = Ckpt_serve.Protocol.Framing
module Plan_cache = Ckpt_serve.Plan_cache
module Bounded_queue = Ckpt_serve.Bounded_queue
module Engine = Ckpt_serve.Engine
module Server = Ckpt_serve.Server
module Client = Ckpt_serve.Client
module Net = Ckpt_serve.Net

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* --- framing --------------------------------------------------------- *)

let test_framing_roundtrip () =
  let decoder = Framing.decoder () in
  let payloads = [ "alpha"; ""; String.make 5000 'x'; "{\"k\":1}" ] in
  let wire = String.concat "" (List.map Framing.encode payloads) in
  (* Feed byte by byte: frames must reassemble across arbitrary chunking. *)
  let got = ref [] in
  String.iter
    (fun c ->
      Framing.feed decoder (String.make 1 c);
      let rec pump () =
        match Framing.next decoder with
        | Some (Framing.Frame p) ->
            got := p :: !got;
            pump ()
        | Some (Framing.Oversized _) -> Alcotest.fail "unexpected oversized"
        | None -> ()
      in
      pump ())
    wire;
  Alcotest.(check (list string)) "all frames recovered" payloads (List.rev !got);
  Alcotest.(check int) "buffer drained" 0 (Framing.buffered decoder)

let test_framing_oversized () =
  let decoder = Framing.decoder ~max_frame:64 () in
  Framing.feed decoder (Framing.encode (String.make 65 'y'));
  (match Framing.next decoder with
  | Some (Framing.Oversized 65) -> ()
  | _ -> Alcotest.fail "expected Oversized 65");
  (* The stream is desynchronized for good: even a valid follow-up frame
     must not resurrect it. *)
  Framing.feed decoder (Framing.encode "ok");
  match Framing.next decoder with
  | Some (Framing.Oversized 65) -> ()
  | _ -> Alcotest.fail "decoder must stay dead after an oversized frame"

(* --- protocol grammar ------------------------------------------------ *)

let test_request_roundtrip () =
  let request =
    {
      Protocol.id = "r-1";
      method_ = "plan_chain";
      timeout_ms = Some 250;
      params = Json.Obj [ ("lambda", Json.Number 0.1) ];
    }
  in
  match Protocol.parse_request (Protocol.request_to_json request) with
  | Ok parsed ->
      Alcotest.(check string) "id" request.Protocol.id parsed.Protocol.id;
      Alcotest.(check string) "method" request.Protocol.method_ parsed.Protocol.method_;
      Alcotest.(check (option int)) "timeout" request.Protocol.timeout_ms
        parsed.Protocol.timeout_ms
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e.Protocol.message)

let test_request_validation () =
  let rejects label json =
    match Protocol.parse_request json with
    | Error e ->
        Alcotest.(check string) (label ^ " code") "bad_request" e.Protocol.code
    | Ok _ -> Alcotest.fail (label ^ ": expected a parse failure")
  in
  rejects "non-object" (Json.String "hi");
  rejects "missing id" (Json.Obj [ ("method", Json.String "ping") ]);
  rejects "empty id"
    (Json.Obj [ ("id", Json.String ""); ("method", Json.String "ping") ]);
  rejects "missing method" (Json.Obj [ ("id", Json.String "x") ]);
  rejects "bad timeout"
    (Json.Obj
       [
         ("id", Json.String "x");
         ("method", Json.String "ping");
         ("timeout_ms", Json.Number (-3.0));
       ])

let test_queue_full_payload () =
  (* The documented backpressure shape: stable code plus the retry hint. *)
  let response =
    Protocol.error_response ~id:(Some "r-9")
      (Protocol.queue_full ~retry_after_ms:25)
  in
  (match Json.member "ok" response with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "ok must be false");
  let error = Option.get (Json.member "error" response) in
  (match Json.member "code" error with
  | Some (Json.String "queue_full") -> ()
  | _ -> Alcotest.fail "code must be queue_full");
  match Option.bind (Json.member "retry_after_ms" error) Json.to_int with
  | Some 25 -> ()
  | _ -> Alcotest.fail "retry_after_ms must carry the configured backoff"

(* --- plan cache: λ·W scale invariance -------------------------------- *)

let random_chain seed n =
  let rng = Ckpt_prng.Rng.create ~seed:(Int64.of_int seed) in
  List.init n (fun i ->
      Task.make ~id:i
        ~work:(Ckpt_prng.Rng.float_range rng 0.5 8.0)
        ~checkpoint_cost:(Ckpt_prng.Rng.float_range rng 0.0 1.5)
        ~recovery_cost:(Ckpt_prng.Rng.float_range rng 0.0 2.0)
        ())

let scale_problem s (problem : Chain_problem.t) =
  let tasks =
    Array.to_list problem.Chain_problem.tasks
    |> List.map (fun (t : Task.t) ->
           Task.make ~id:t.Task.id ~work:(s *. t.Task.work)
             ~checkpoint_cost:(s *. t.Task.checkpoint_cost)
             ~recovery_cost:(s *. t.Task.recovery_cost) ())
  in
  Chain_problem.make
    ~downtime:(s *. problem.Chain_problem.downtime)
    ~initial_recovery:(s *. problem.Chain_problem.initial_recovery)
    ~lambda:(problem.Chain_problem.lambda /. s)
    tasks

let instance_gen = QCheck.(triple (int_range 2 12) (int_range 0 100_000) (int_range (-6) 6))

let qcheck_rescaled_key_identical =
  (* Power-of-two rescalings are exact in IEEE arithmetic, so the
     canonical floats, and the digest of their bits, must match: the
     cache treats the two instances as the same problem. *)
  QCheck.Test.make ~name:"2^k-rescaled problems hash identically" ~count:200
    instance_gen
    (fun (n, seed, k) ->
      let problem =
        Chain_problem.make ~downtime:0.3 ~initial_recovery:0.5 ~lambda:0.05
          (random_chain seed n)
      in
      let scaled = scale_problem (Float.ldexp 1.0 k) problem in
      String.equal (Plan_cache.canonical_key problem) (Plan_cache.canonical_key scaled))

(* The key before it hashed float bits: the canonical floats printed at
   %.17g, which round-trips exactly. The bit-hashed key must induce the
   same equivalence: two problems share a key exactly when they share
   this one. *)
let reference_key (problem : Chain_problem.t) =
  let w_total = Chain_problem.total_work problem in
  let buf = Buffer.create 256 in
  let add x = Buffer.add_string buf (Printf.sprintf "%.17g;" x) in
  Buffer.add_string buf (string_of_int (Chain_problem.size problem));
  Buffer.add_char buf ';';
  add (problem.Chain_problem.lambda *. w_total);
  add (problem.Chain_problem.downtime /. w_total);
  add (problem.Chain_problem.initial_recovery /. w_total);
  Array.iter
    (fun (task : Task.t) ->
      add (task.Task.work /. w_total);
      add (task.Task.checkpoint_cost /. w_total);
      add (task.Task.recovery_cost /. w_total))
    problem.Chain_problem.tasks;
  Buffer.contents buf

let keys_agree a b =
  Bool.equal
    (String.equal (Plan_cache.canonical_key a) (Plan_cache.canonical_key b))
    (String.equal (reference_key a) (reference_key b))

(* A random chain from a space small enough (96 problems) that two
   independent draws coincide now and then. *)
let problem_gen =
  QCheck.Gen.(
    map
      (fun ((n, seed), (lambda, downtime, initial_recovery)) ->
        Chain_problem.make ~downtime ~initial_recovery ~lambda (random_chain seed n))
      (pair
         (pair (int_range 1 4) (int_range 0 2))
         (triple (oneofl [ 0.01; 0.05 ]) (oneofl [ 0.0; 0.3 ]) (oneofl [ 0.0; 0.5 ]))))

let arb_problem = QCheck.make ~print:(Format.asprintf "%a" Chain_problem.pp) problem_gen

(* [problem] with one field moved up by one ulp: 0-2 are λ, D and R0,
   then w, C and R of each task in turn. *)
let bump_field (problem : Chain_problem.t) field =
  let lambda = problem.Chain_problem.lambda
  and downtime = problem.Chain_problem.downtime
  and initial_recovery = problem.Chain_problem.initial_recovery in
  let bump i x = if i = field then Float.succ x else x in
  let tasks =
    Array.to_list problem.Chain_problem.tasks
    |> List.mapi (fun i (t : Task.t) ->
           let slot = 3 + (3 * i) in
           Task.make ~id:i ~work:(bump slot t.Task.work)
             ~checkpoint_cost:(bump (slot + 1) t.Task.checkpoint_cost)
             ~recovery_cost:(bump (slot + 2) t.Task.recovery_cost)
             ())
  in
  Chain_problem.make ~lambda:(bump 0 lambda) ~downtime:(bump 1 downtime)
    ~initial_recovery:(bump 2 initial_recovery) tasks

let qcheck_key_matches_reference =
  QCheck.Test.make ~name:"bit-hashed key induces the %.17g key's equivalence"
    ~count:300
    QCheck.(triple arb_problem arb_problem (pair (int_range (-6) 6) small_nat))
    (fun (a, b, (k, field)) ->
      let field = field mod (3 + (3 * Chain_problem.size a)) in
      (* a 2^k rescaling: the same key under both *)
      keys_agree a (scale_problem (Float.ldexp 1.0 k) a)
      (* a one-ulp bump of one field: a new key, or the same one when
         the bump vanishes in the division by W *)
      && keys_agree a (bump_field a field)
      (* independent chains, equal whenever both draws coincide *)
      && keys_agree a b)

let qcheck_rescaled_hit_equivalent =
  (* Solving the base instance and then asking for a rescaling must hit,
     keep the placement, and rescale the makespan. *)
  QCheck.Test.make ~name:"cache hit on a rescaled problem returns the rescaled plan"
    ~count:100 instance_gen
    (fun (n, seed, k) ->
      let s = Float.ldexp 1.0 k in
      let problem =
        Chain_problem.make ~downtime:0.3 ~initial_recovery:0.5 ~lambda:0.05
          (random_chain seed n)
      in
      let scaled = scale_problem s problem in
      let cache = Plan_cache.create ~capacity:8 in
      let solution = Chain_dp.solve problem in
      Plan_cache.store cache (Plan_cache.key problem) solution;
      match Plan_cache.find cache (Plan_cache.key scaled) with
      | None -> false
      | Some hit ->
          hit.Plan_cache.checkpoints_after
          = Schedule.checkpoint_indices solution.Chain_dp.schedule
          && rel_close hit.Plan_cache.expected_makespan
               (s *. solution.Chain_dp.expected_makespan)
          && (* bit-for-bit on the exact same instance *)
          (k <> 0 || Float.equal hit.Plan_cache.expected_makespan
                       solution.Chain_dp.expected_makespan))

let test_cache_lru_eviction () =
  let problem_of seed = Chain_problem.make ~lambda:0.05 (random_chain seed 6) in
  let a = problem_of 1 and b = problem_of 2 and c = problem_of 3 in
  let cache = Plan_cache.create ~capacity:2 in
  Plan_cache.store cache (Plan_cache.key a) (Chain_dp.solve a);
  Plan_cache.store cache (Plan_cache.key b) (Chain_dp.solve b);
  (* Touch [a] so [b] is the least recently used entry. *)
  Alcotest.(check bool) "a hits" true (Plan_cache.find cache (Plan_cache.key a) <> None);
  Plan_cache.store cache (Plan_cache.key c) (Chain_dp.solve c);
  Alcotest.(check int) "capacity respected" 2 (Plan_cache.length cache);
  Alcotest.(check bool) "b evicted" true (Plan_cache.find cache (Plan_cache.key b) = None);
  Alcotest.(check bool) "a survives" true (Plan_cache.find cache (Plan_cache.key a) <> None);
  Alcotest.(check bool) "c present" true (Plan_cache.find cache (Plan_cache.key c) <> None)

(* --- bounded queue --------------------------------------------------- *)

let test_queue_backpressure () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bounded_queue.try_push q 1 = Bounded_queue.Pushed);
  Alcotest.(check bool) "push 2" true (Bounded_queue.try_push q 2 = Bounded_queue.Pushed);
  Alcotest.(check bool) "push 3 rejected" true
    (Bounded_queue.try_push q 3 = Bounded_queue.Full);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check bool) "slot freed" true
    (Bounded_queue.try_push q 4 = Bounded_queue.Pushed)

let test_queue_drain_on_close () =
  let q = Bounded_queue.create ~capacity:8 in
  List.iter (fun i -> ignore (Bounded_queue.try_push q i)) [ 1; 2; 3 ];
  Bounded_queue.close q;
  Alcotest.(check bool) "push after close" true
    (Bounded_queue.try_push q 9 = Bounded_queue.Closed);
  (* Items accepted before the close are still delivered, in order. *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drain 3" (Some 3) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "then closed" None (Bounded_queue.pop q)

let test_queue_blocking_pop () =
  let q = Bounded_queue.create ~capacity:4 in
  let consumer = Domain.spawn (fun () -> Bounded_queue.pop q) in
  ignore (Bounded_queue.try_push q 42);
  Alcotest.(check (option int)) "blocked pop wakes" (Some 42) (Domain.join consumer);
  let waiter = Domain.spawn (fun () -> Bounded_queue.pop q) in
  Bounded_queue.close q;
  Alcotest.(check (option int)) "close wakes waiter" None (Domain.join waiter)

(* --- engine ---------------------------------------------------------- *)

let chain_params (problem : Chain_problem.t) =
  Json.Obj
    [
      ("lambda", Json.Number problem.Chain_problem.lambda);
      ("downtime", Json.Number problem.Chain_problem.downtime);
      ("initial_recovery", Json.Number problem.Chain_problem.initial_recovery);
      ( "tasks",
        Json.List
          (Array.to_list problem.Chain_problem.tasks
          |> List.map (fun (t : Task.t) ->
                 Json.Obj
                   [
                     ("work", Json.Number t.Task.work);
                     ("checkpoint", Json.Number t.Task.checkpoint_cost);
                     ("recovery", Json.Number t.Task.recovery_cost);
                   ])) );
    ]

let request ?timeout_ms ?(params = Json.Null) id method_ =
  { Protocol.id; method_; timeout_ms; params }

let result_of response =
  (match Json.member "ok" response with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail ("request failed: " ^ Json.to_string response));
  Option.get (Json.member "result" response)

let error_code response =
  match
    Option.bind (Json.member "error" response) (fun e -> Json.member "code" e)
  with
  | Some (Json.String code) -> code
  | _ -> Alcotest.fail ("no error code in " ^ Json.to_string response)

let check_chain_result problem result =
  let oracle = Chain_dp.solve problem in
  (match Option.bind (Json.member "expected_makespan" result) Json.to_float with
  | Some served ->
      Alcotest.(check bool)
        "makespan bit-identical to Chain_dp.solve" true
        (Float.equal served oracle.Chain_dp.expected_makespan)
  | None -> Alcotest.fail "expected_makespan missing");
  let served =
    match Option.bind (Json.member "checkpoints_after" result) Json.to_list with
    | Some l -> List.filter_map Json.to_int l
    | None -> Alcotest.fail "checkpoints_after missing"
  in
  Alcotest.(check (list int))
    "placement identical"
    (Schedule.checkpoint_indices oracle.Chain_dp.schedule)
    served

let test_engine_plan_chain () =
  let engine = Engine.create ~cache_capacity:16 in
  let problem =
    Chain_problem.make ~downtime:0.2 ~initial_recovery:0.4 ~lambda:0.04
      (random_chain 11 9)
  in
  let params = chain_params problem in
  let first = Engine.handle engine (request ~params "c1" "plan_chain") in
  check_chain_result problem (result_of first);
  (match Json.member "cache" first with
  | Some (Json.String "miss") -> ()
  | _ -> Alcotest.fail "first call must be a cache miss");
  let second = Engine.handle engine (request ~params "c2" "plan_chain") in
  check_chain_result problem (result_of second);
  match Json.member "cache" second with
  | Some (Json.String "hit") -> ()
  | _ -> Alcotest.fail "second call must be a cache hit"

let test_engine_errors () =
  let engine = Engine.create ~cache_capacity:4 in
  Alcotest.(check string) "unknown method" "unknown_method"
    (error_code (Engine.handle engine (request "e1" "no_such_method")));
  Alcotest.(check string) "missing params" "bad_request"
    (error_code (Engine.handle engine (request "e2" "plan_chain")));
  let bad_tasks =
    Json.Obj [ ("lambda", Json.Number 0.1); ("tasks", Json.List []) ]
  in
  Alcotest.(check string) "empty chain" "bad_request"
    (error_code (Engine.handle engine (request ~params:bad_tasks "e3" "plan_chain")));
  (* Out-of-range moldable models used to plan, with a negative
     expected makespan or negative checkpoint costs. *)
  let moldable_task ?workload ~checkpoint () =
    Json.Obj
      [
        ("proc_rate", Json.Number 1e-6);
        ("max_processors", Json.Number 64.0);
        ( "tasks",
          Json.List
            [
              Json.Obj
                ([ ("total_work", Json.Number 2000.0); ("checkpoint", checkpoint) ]
                @ Option.to_list (Option.map (fun w -> ("workload", w)) workload));
            ] );
      ]
  in
  let overhead model alpha_v =
    Json.Obj [ ("model", Json.String model); ("alpha_v", Json.Number alpha_v) ]
  in
  let workload model gamma =
    Json.Obj [ ("model", Json.String model); ("gamma", Json.Number gamma) ]
  in
  List.iteri
    (fun i (label, params) ->
      Alcotest.(check string) label "bad_request"
        (error_code
           (Engine.handle engine
              (request ~params (Printf.sprintf "m%d" i) "plan_moldable"))))
    [
      ( "amdahl gamma < 0",
        moldable_task ~workload:(workload "amdahl" (-3.0))
          ~checkpoint:(overhead "proportional" 50.0) () );
      ( "kernel gamma < 0",
        moldable_task ~workload:(workload "numerical" (-50.0))
          ~checkpoint:(overhead "proportional" 50.0) () );
      ("negative checkpoint volume", moldable_task ~checkpoint:(overhead "constant" (-5.0)) ());
    ]

let test_engine_unpriceable_recovery () =
  (* At λ = 1 a recovery of 710 overflows e^(λR)·(1/λ + D), so every
     segment recovering with it would cost +∞; such a chain used to be
     answered ok with a null makespan and a checkpoint after every
     task. Both chain methods now refuse the field, and λR = 700 is
     still priced. A subnormal λ overflows 1/λ, the factor for every
     R. *)
  let engine = Engine.create ~cache_capacity:4 in
  let params ?(lambda = 1.0) ~initial_recovery recoveries =
    Json.Obj
      [
        ("lambda", Json.Number lambda);
        ("initial_recovery", Json.Number initial_recovery);
        ( "tasks",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("work", Json.Number 1.0);
                     ("checkpoint", Json.Number 1.0);
                     ("recovery", Json.Number r);
                   ])
               recoveries) );
      ]
  in
  List.iter
    (fun (label, method_, params, field) ->
      let response = Engine.handle engine (request ~params label method_) in
      Alcotest.(check string) (label ^ ": code") "bad_request" (error_code response);
      let message =
        match Option.bind (Json.member "error" response) (Json.member "message") with
        | Some (Json.String m) -> m
        | _ -> Alcotest.fail ("no error message in " ^ Json.to_string response)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" label message field)
        true
        (Astring_like.contains message (Printf.sprintf "params: %s:" field)))
    [
      ( "r0", "plan_chain",
        params ~initial_recovery:710.0 [ 710.0; 710.0; 710.0; 710.0 ],
        "initial_recovery" );
      ( "task", "plan_chain",
        params ~initial_recovery:0.0 [ 1.0; 1.0; 710.0; 1.0 ],
        "tasks[2].recovery" );
      ( "independent", "plan_independent",
        params ~initial_recovery:0.0 [ 1.0; 710.0; 1.0; 1.0 ],
        "tasks[1].recovery" );
      (* The largest R overflows first; the answer names the first. *)
      ( "first of two", "plan_chain",
        params ~initial_recovery:0.0 [ 1.0; 710.0; 1.0; 800.0 ],
        "tasks[1].recovery" );
      ( "subnormal lambda", "plan_chain",
        params ~lambda:1e-310 ~initial_recovery:0.0 [ 1.0; 1.0 ],
        "lambda" );
    ];
  let result =
    result_of
      (Engine.handle engine
         (request
            ~params:(params ~initial_recovery:700.0 [ 700.0; 700.0; 700.0; 700.0 ])
            "priced" "plan_chain"))
  in
  match Option.bind (Json.member "expected_makespan" result) Json.to_float with
  | Some m when Float.is_finite m -> ()
  | _ -> Alcotest.fail ("λR = 700 must be priced: " ^ Json.to_string result)

let test_engine_other_methods () =
  let engine = Engine.create ~cache_capacity:4 in
  (match
     Json.member "result" (Engine.handle engine (request "p1" "ping"))
   with
  | Some (Json.String "pong") -> ()
  | _ -> Alcotest.fail "ping must pong");
  let params =
    Json.Obj
      [
        ("lambda", Json.Number 0.05);
        ( "tasks",
          Json.List
            (List.map
               (fun w ->
                 Json.Obj
                   [ ("work", Json.Number w); ("checkpoint", Json.Number 0.5) ])
               [ 3.0; 1.0; 2.0; 5.0 ]) );
      ]
  in
  let result =
    result_of (Engine.handle engine (request ~params "i1" "plan_independent"))
  in
  (match Option.bind (Json.member "expected_makespan" result) Json.to_float with
  | Some _ -> ()
  | None -> Alcotest.fail "independent: no makespan");
  let moldable_params =
    Json.Obj
      [
        ("proc_rate", Json.Number 1e-6);
        ("max_processors", Json.Number 64.0);
        ("downtime", Json.Number 5.0);
        ( "tasks",
          Json.List
            (List.map
               (fun w ->
                 Json.Obj
                   [
                     ("total_work", Json.Number w);
                     ( "checkpoint",
                       Json.Obj
                         [
                           ("model", Json.String "proportional");
                           ("alpha_v", Json.Number 50.0);
                         ] );
                   ])
               [ 2000.0; 3000.0; 2500.0 ]) );
      ]
  in
  let result =
    result_of (Engine.handle engine (request ~params:moldable_params "m1" "plan_moldable"))
  in
  match Option.bind (Json.member "segments" result) Json.to_list with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "moldable: no segments"

(* --- server over a real socket --------------------------------------- *)

let test_net_nodelay () =
  (* Without TCP_NODELAY a response written while an earlier one is
     unacknowledged waits for the peer's next request or its delayed-ACK
     timer: a stall of one inter-arrival time or 40 ms on every
     pipelined connection. *)
  let listener, port = Net.listen ~host:"127.0.0.1" ~port:0 in
  let client = Net.connect ~host:"127.0.0.1" ~port in
  let rec accept tries =
    match Net.accept listener with
    | Some fd -> fd
    | None when tries > 0 ->
        ignore (Net.select_read [ listener ] ~timeout_s:0.1);
        accept (tries - 1)
    | None -> Alcotest.fail "no pending connection"
  in
  let accepted = accept 50 in
  Fun.protect
    ~finally:(fun () -> List.iter Net.close [ accepted; client; listener ])
    (fun () ->
      let nodelay fd = Unix.getsockopt (fd : Net.fd :> Unix.file_descr) Unix.TCP_NODELAY in
      Alcotest.(check bool) "accepted socket" true (nodelay accepted);
      Alcotest.(check bool) "connected socket" true (nodelay client))

(* Raw pipelined client: lets the tests send several frames before
   reading any response (Client.rpc couples send and receive). *)
type raw = { fd : Net.fd; decoder : Framing.decoder }

let raw_connect port =
  { fd = Net.connect ~host:"127.0.0.1" ~port; decoder = Framing.decoder () }

let raw_send raw json =
  Alcotest.(check bool) "send" true (Net.write_all raw.fd (Framing.encode (Json.to_string json)))

let raw_send_request raw request = raw_send raw (Protocol.request_to_json request)

let raw_recv raw =
  let rec go () =
    match Framing.next raw.decoder with
    | Some (Framing.Frame payload) -> Json.parse payload
    | Some (Framing.Oversized _) -> Alcotest.fail "oversized server response"
    | None -> (
        match Net.read_chunk raw.fd with
        | None -> Alcotest.fail "server closed the connection unexpectedly"
        | Some chunk ->
            Framing.feed raw.decoder chunk;
            go ())
  in
  go ()

let response_id response =
  match Json.member "id" response with
  | Some (Json.String id) -> id
  | _ -> Alcotest.fail ("response without id: " ^ Json.to_string response)

let with_server config f =
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let test_server_end_to_end () =
  with_server Server.default_config (fun server ->
      let client = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close client) (fun () ->
          let problems =
            List.map (fun seed -> Chain_problem.make ~downtime:0.1 ~lambda:0.03
                                    (random_chain (100 + seed) (4 + seed)))
              [ 1; 2; 3; 4 ]
          in
          List.iteri
            (fun i problem ->
              let response =
                Client.call client ~id:(Printf.sprintf "cold-%d" i)
                  ~params:(chain_params problem) "plan_chain"
              in
              check_chain_result problem (result_of response))
            problems;
          (* Same mix again: served from the cache, still bit-for-bit. *)
          List.iteri
            (fun i problem ->
              let response =
                Client.call client ~id:(Printf.sprintf "warm-%d" i)
                  ~params:(chain_params problem) "plan_chain"
              in
              (match Json.member "cache" response with
              | Some (Json.String "hit") -> ()
              | _ -> Alcotest.fail "repeat must hit the cache");
              check_chain_result problem (result_of response))
            problems;
          Alcotest.(check string) "unknown method over the wire" "unknown_method"
            (error_code (Client.call client ~id:"um" "nope"))))

let test_server_protocol_errors () =
  with_server Server.default_config (fun server ->
      let raw = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Net.close raw.fd) (fun () ->
          (* Malformed JSON costs one error response, not the connection. *)
          Alcotest.(check bool) "send garbage" true
            (Net.write_all raw.fd (Framing.encode "{not json"));
          Alcotest.(check string) "parse_error" "parse_error" (error_code (raw_recv raw));
          (* The connection still works afterwards. *)
          raw_send_request raw (request "after" "ping");
          Alcotest.(check string) "still alive" "after" (response_id (raw_recv raw));
          (* An oversized frame is answered, then the stream dies. *)
          let huge = Bytes.make 4 '\xff' in
          Alcotest.(check bool) "send oversized header" true
            (Net.write_all raw.fd (Bytes.to_string huge));
          Alcotest.(check string) "oversized_frame" "oversized_frame"
            (error_code (raw_recv raw))))

let test_server_deep_frame () =
  (* 524,280 nested arrays fill a legal 1 MiB frame. The event loop
     answers it like any malformed frame and keeps the connection. *)
  with_server Server.default_config (fun server ->
      let raw = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Net.close raw.fd) (fun () ->
          let depth = 524_280 in
          let frame = String.make depth '[' ^ String.make depth ']' in
          Alcotest.(check bool) "frame fits" true
            (String.length frame <= Framing.default_max_frame);
          Alcotest.(check bool) "send the nested frame" true
            (Net.write_all raw.fd (Framing.encode frame));
          let response = raw_recv raw in
          Alcotest.(check string) "parse_error" "parse_error" (error_code response);
          raw_send_request raw (request "after" "ping");
          Alcotest.(check string) "still alive" "after" (response_id (raw_recv raw))))

(* Deterministic worker gate: the hook parks every worker until the test
   opens the gate, so queue occupancy is fully controlled. *)
let make_gate () =
  let open_flag = Atomic.make false in
  let entered = Atomic.make 0 in
  let hook () =
    Atomic.incr entered;
    while not (Atomic.get open_flag) do
      Domain.cpu_relax ()
    done
  in
  (hook, open_flag, entered)

let spin_until ?(tries = 10_000_000) label predicate =
  let rec go n =
    if predicate () then ()
    else if n = 0 then Alcotest.fail ("timed out waiting for " ^ label)
    else begin
      Domain.cpu_relax ();
      go (n - 1)
    end
  in
  go tries

let small_problem = lazy (Chain_problem.make ~lambda:0.05 (random_chain 55 6))

let test_server_backpressure () =
  let hook, gate, entered = make_gate () in
  let config =
    {
      Server.default_config with
      workers = 1;
      queue_capacity = 2;
      retry_after_ms = 17;
      worker_hook = Some hook;
    }
  in
  with_server config (fun server ->
      let params = chain_params (Lazy.force small_problem) in
      let raw = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Net.close raw.fd) (fun () ->
          raw_send_request raw (request ~params "r1" "plan_chain");
          (* The single worker now holds r1 at the gate; r2/r3 fill the
             queue; r4 must be rejected immediately — never dropped. *)
          spin_until "worker to pick up r1" (fun () -> Atomic.get entered >= 1);
          raw_send_request raw (request ~params "r2" "plan_chain");
          raw_send_request raw (request ~params "r3" "plan_chain");
          spin_until "queue to fill" (fun () -> Server.pending server = 3);
          raw_send_request raw (request ~params "r4" "plan_chain");
          let rejection = raw_recv raw in
          Alcotest.(check string) "r4 rejected" "r4" (response_id rejection);
          Alcotest.(check string) "queue_full" "queue_full" (error_code rejection);
          (match
             Option.bind (Json.member "error" rejection) (fun e ->
                 Option.bind (Json.member "retry_after_ms" e) Json.to_int)
           with
          | Some 17 -> ()
          | _ -> Alcotest.fail "retry_after_ms must carry the configured value");
          (* Open the gate: the accepted requests all complete, in order. *)
          Atomic.set gate true;
          List.iter
            (fun expected ->
              let response = raw_recv raw in
              Alcotest.(check string) "drained in order" expected (response_id response);
              ignore (result_of response))
            [ "r1"; "r2"; "r3" ];
          spin_until "pending to settle" (fun () -> Server.pending server = 0)))

let test_server_stop_drains_under_load () =
  let hook, gate, entered = make_gate () in
  let config =
    {
      Server.default_config with
      workers = 1;
      queue_capacity = 8;
      worker_hook = Some hook;
    }
  in
  let server = Server.start config in
  let raw = raw_connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Net.close raw.fd) (fun () ->
      let params = chain_params (Lazy.force small_problem) in
      let ids = [ "s1"; "s2"; "s3"; "s4" ] in
      List.iter (fun id -> raw_send_request raw (request ~params id "plan_chain")) ids;
      spin_until "worker to engage" (fun () -> Atomic.get entered >= 1);
      spin_until "all four accepted" (fun () -> Server.pending server = 4);
      (* Stop while one request is in flight and three are queued. *)
      let stopper = Domain.spawn (fun () -> Server.stop server) in
      Atomic.set gate true;
      Domain.join stopper;
      Alcotest.(check int) "nothing left pending" 0 (Server.pending server);
      (* Every accepted request was answered before its socket closed. *)
      List.iter
        (fun expected ->
          let response = raw_recv raw in
          Alcotest.(check string) "drained response" expected (response_id response);
          ignore (result_of response))
        ids)

let test_server_deadline () =
  let hook, gate, entered = make_gate () in
  let config =
    { Server.default_config with workers = 1; worker_hook = Some hook }
  in
  with_server config (fun server ->
      let params = chain_params (Lazy.force small_problem) in
      let raw = raw_connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Net.close raw.fd) (fun () ->
          raw_send_request raw (request ~params "d1" "plan_chain");
          spin_until "worker to engage" (fun () -> Atomic.get entered >= 1);
          (* d2 is queued behind the gated d1 with a 1 ms deadline that
             expires while it waits. *)
          raw_send_request raw (request ~params ~timeout_ms:1 "d2" "plan_chain");
          spin_until "d2 queued" (fun () -> Server.pending server = 2);
          Unix.sleepf 0.02;
          Atomic.set gate true;
          let first = raw_recv raw in
          Alcotest.(check string) "d1 answered" "d1" (response_id first);
          let second = raw_recv raw in
          Alcotest.(check string) "d2 answered" "d2" (response_id second);
          Alcotest.(check string) "d2 deadline_exceeded" "deadline_exceeded"
            (error_code second)))

let suite =
  [
    Alcotest.test_case "framing: chunked round-trip" `Quick test_framing_roundtrip;
    Alcotest.test_case "framing: oversized desync" `Quick test_framing_oversized;
    Alcotest.test_case "protocol: request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol: request validation" `Quick test_request_validation;
    Alcotest.test_case "protocol: queue_full payload" `Quick test_queue_full_payload;
    QCheck_alcotest.to_alcotest qcheck_rescaled_key_identical;
    QCheck_alcotest.to_alcotest qcheck_key_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_rescaled_hit_equivalent;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "queue: backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "queue: drain on close" `Quick test_queue_drain_on_close;
    Alcotest.test_case "queue: blocking pop" `Quick test_queue_blocking_pop;
    Alcotest.test_case "engine: plan_chain + cache" `Quick test_engine_plan_chain;
    Alcotest.test_case "engine: error responses" `Quick test_engine_errors;
    Alcotest.test_case "engine: unpriceable recovery refused" `Quick
      test_engine_unpriceable_recovery;
    Alcotest.test_case "engine: ping/independent/moldable" `Quick
      test_engine_other_methods;
    Alcotest.test_case "net: TCP_NODELAY on both ends" `Quick test_net_nodelay;
    Alcotest.test_case "server: end-to-end bit-for-bit" `Quick test_server_end_to_end;
    Alcotest.test_case "server: protocol errors" `Quick test_server_protocol_errors;
    Alcotest.test_case "server: deeply nested frame" `Quick test_server_deep_frame;
    Alcotest.test_case "server: queue backpressure" `Quick test_server_backpressure;
    Alcotest.test_case "server: stop drains under load" `Quick
      test_server_stop_drains_under_load;
    Alcotest.test_case "server: per-request deadline" `Quick test_server_deadline;
  ]
