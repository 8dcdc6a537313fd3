(* CLI for the ckpt-serve daemon (protocol in docs/SERVING.md).

   [serve] runs the daemon until SIGINT/SIGTERM, then drains.
   [smoke] is the self-contained CI check: it starts a server on an
   ephemeral loopback port, drives a scripted request mix through a
   real socket (cold pass, then a repeat pass that must hit the plan
   cache), and asserts every response is bit-for-bit identical to the
   offline solver on the same instance. *)

open Cmdliner
module Json = Ckpt_json.Json
module Task = Ckpt_dag.Task
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule
module Server = Ckpt_serve.Server
module Client = Ckpt_serve.Client
module Obs_cli = Ckpt_obs_cli.Obs_cli

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let run_serve host port workers queue_capacity cache_capacity retry_after_ms
    obs_flush =
  let config =
    {
      Server.default_config with
      host;
      port;
      workers;
      queue_capacity;
      cache_capacity;
      retry_after_ms;
    }
  in
  let server = Server.start config in
  Printf.printf "ckpt-serve: listening on %s:%d (workers=%d queue=%d cache=%d)\n%!"
    host (Server.port server) workers queue_capacity cache_capacity;
  let stop_requested = Atomic.make false in
  let request_stop (_ : int) = Atomic.set stop_requested true in
  ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
  ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
  while not (Atomic.get stop_requested) do
    Unix.sleepf 0.2
  done;
  prerr_endline "ckpt-serve: draining in-flight work";
  Server.stop server;
  obs_flush ();
  0

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic instance family shared by the request builder and the
   offline oracle: task i of instance k has hand-rolled quasi-random
   costs (no RNG — the mix must be identical on every machine). *)
let smoke_tasks k n =
  List.init n (fun i ->
      let work = 1.0 +. float_of_int ((((i + 1) * (k + 3) * 7919) mod 97) + 1) /. 13.0 in
      let checkpoint = 0.1 +. float_of_int (((i + 2) * (k + 1) * 104729) mod 23) /. 29.0 in
      let recovery = 0.2 +. float_of_int (((i + 5) * (k + 2) * 1299709) mod 17) /. 31.0 in
      (work, checkpoint, recovery))

(* Instance 4 fails the certificate only at row 0 (R0 = 0 below a first
   recovery above its work), instance 9 at a checkpoint cliff. Instance
   11 is 1,500 tasks at a failure rate whose optimal segments span more
   than a SMAWK block, so its plan skips blocks' divide and conquer. *)
let smoke_instance k =
  let n, lambda =
    if k = 11 then (1_500, 5e-8)
    else (5 + ((k * 11) mod 28), 0.005 +. (float_of_int (k + 1) /. 200.0))
  in
  let downtime = float_of_int (k mod 3) /. 10.0 in
  let initial_recovery = float_of_int (k mod 4) /. 8.0 in
  let cliff i (w, c, r) =
    if k = 4 && i = 0 then (w, c, w +. 1.0) else if k = 9 && i = n / 2 then (w, c +. 20.0, r)
    else (w, c, r)
  in
  (lambda, downtime, initial_recovery, List.mapi cliff (smoke_tasks k n))

let chain_params (lambda, downtime, initial_recovery, tasks) =
  Json.Obj
    [
      ("lambda", Json.Number lambda);
      ("downtime", Json.Number downtime);
      ("initial_recovery", Json.Number initial_recovery);
      ( "tasks",
        Json.List
          (List.map
             (fun (work, checkpoint, recovery) ->
               Json.Obj
                 [
                   ("work", Json.Number work);
                   ("checkpoint", Json.Number checkpoint);
                   ("recovery", Json.Number recovery);
                 ])
             tasks) );
    ]

let offline_solution (lambda, downtime, initial_recovery, tasks) =
  let tasks =
    List.mapi
      (fun i (work, checkpoint_cost, recovery_cost) ->
        Task.make ~id:i ~work ~checkpoint_cost ~recovery_cost ())
      tasks
  in
  Chain_dp.solve (Chain_problem.make ~downtime ~initial_recovery ~lambda tasks)

exception Smoke_failed of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Smoke_failed msg)) fmt

let response_field name response =
  match Json.member name response with
  | Some v -> v
  | None -> failf "response is missing field %S: %s" name (Json.to_string response)

let check_ok response =
  match Json.member "ok" response with
  | Some (Json.Bool true) -> ()
  | _ -> failf "request failed: %s" (Json.to_string response)

let check_cache expected response =
  match Json.member "cache" response with
  | Some (Json.String c) when c = expected -> ()
  | _ ->
      failf "expected cache=%s in %s" expected (Json.to_string response)

let check_against_oracle instance response =
  check_ok response;
  let result = response_field "result" response in
  let oracle = offline_solution instance in
  (match Json.to_float (response_field "expected_makespan" result) with
  | Some served when Float.equal served oracle.Chain_dp.expected_makespan -> ()
  | Some served ->
      failf "makespan mismatch: served %.17g, offline %.17g" served
        oracle.Chain_dp.expected_makespan
  | None -> failf "expected_makespan is not a number");
  let served_ckpts =
    match Json.to_list (response_field "checkpoints_after" result) with
    | Some l -> List.filter_map Json.to_int l
    | None -> failf "checkpoints_after is not a list"
  in
  let oracle_ckpts = Schedule.checkpoint_indices oracle.Chain_dp.schedule in
  if served_ckpts <> oracle_ckpts then
    failf "checkpoint placement mismatch: served [%s], offline [%s]"
      (String.concat ";" (List.map string_of_int served_ckpts))
      (String.concat ";" (List.map string_of_int oracle_ckpts))

let run_smoke instances workers obs_flush =
  let config = { Server.default_config with workers } in
  let server = Server.start config in
  let finish code =
    Server.stop server;
    obs_flush ();
    code
  in
  try
    let client = Client.connect ~port:(Server.port server) () in
    (match Client.call client ~id:"ping-0" "ping" with
    | response -> check_ok response);
    let mix = List.init instances smoke_instance in
    (* Cold pass: every instance is new, so every response must be a
       cache miss and must match the offline solver bit-for-bit. *)
    List.iteri
      (fun i instance ->
        let response =
          Client.call client
            ~id:(Printf.sprintf "cold-%d" i)
            ~params:(chain_params instance) "plan_chain"
        in
        check_cache "miss" response;
        check_against_oracle instance response)
      mix;
    (* Repeat pass: identical requests — the canonicalizing cache must
       serve all of them, still bit-for-bit identical. *)
    List.iteri
      (fun i instance ->
        let response =
          Client.call client
            ~id:(Printf.sprintf "warm-%d" i)
            ~params:(chain_params instance) "plan_chain"
        in
        check_cache "hit" response;
        check_against_oracle instance response)
      mix;
    (* Error paths stay errors, not hangs. *)
    (match Client.call client ~id:"nope-0" "no_such_method" with
    | response -> (
        match Json.member "ok" response with
        | Some (Json.Bool false) -> ()
        | _ -> failf "unknown method must fail: %s" (Json.to_string response)));
    Client.close client;
    Printf.printf
      "ckpt-serve smoke: %d cold + %d cached requests bit-identical to the \
       offline solver\n"
      instances instances;
    finish 0
  with
  | Smoke_failed msg ->
      prerr_endline ("ckpt-serve smoke: FAILED: " ^ msg);
      finish 1
  | Client.Transport msg ->
      prerr_endline ("ckpt-serve smoke: transport failure: " ^ msg);
      finish 1

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let host =
  let doc = "Address to bind." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port =
  let doc = "Port to bind (0 picks a free port)." in
  Arg.(value & opt int 0 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let workers =
  let doc = "Worker-domain count." in
  Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc)

let queue_capacity =
  let doc = "Bounded request-queue capacity (beyond it: queue_full)." in
  Arg.(value & opt int 64 & info [ "queue-capacity" ] ~docv:"N" ~doc)

let cache_capacity =
  let doc = "Plan-cache capacity (canonicalized problems)." in
  Arg.(value & opt int 1024 & info [ "cache-capacity" ] ~docv:"N" ~doc)

let retry_after_ms =
  let doc = "Backoff hint carried by queue_full rejections." in
  Arg.(value & opt int 25 & info [ "retry-after-ms" ] ~docv:"MS" ~doc)

let instances =
  let doc = "Number of distinct instances in the smoke mix." in
  Arg.(value & opt int 12 & info [ "n"; "instances" ] ~docv:"N" ~doc)

let serve_cmd =
  let doc = "run the planning daemon until SIGINT/SIGTERM, then drain" in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ host $ port $ workers $ queue_capacity $ cache_capacity
      $ retry_after_ms $ Obs_cli.term)

let smoke_cmd =
  let doc =
    "start a loopback server, drive a scripted mix, verify bit-for-bit \
     against the offline solver"
  in
  Cmd.v (Cmd.info "smoke" ~doc) Term.(const run_smoke $ instances $ workers $ Obs_cli.term)

let cmd =
  let doc = "checkpoint-planning service (RR-7907 solvers behind a socket)" in
  let info = Cmd.info "ckpt-serve" ~version:"1.0.0" ~doc in
  Cmd.group info [ serve_cmd; smoke_cmd ]

let () = exit (Cmd.eval' cmd)
