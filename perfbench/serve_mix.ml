(* serve-mix: the shipped ckpt-serve daemon, in its own process with its
   default configuration, driven over loopback by an open-loop generator
   on one pipelined connection. The request stream comes from {!Mix};
   each request is timed from its intended send time to its response, so
   a stall is charged to every request it delays.

   After the window every answer is checked: plan_chain answers against
   an offline Chain_dp.solve_smawk of the same instance, bit for bit, and
   against 2^k times the base instance's makespan when rescaled; other
   methods against Engine.handle on the same request in-process.

   The traced run replays the same stream in-process, in schedule order,
   through the public functions of each layer, with a span around each
   call. The live run supplies the counts and latencies. *)

module Json = Ckpt_json.Json
module Protocol = Ckpt_serve.Protocol
module Engine = Ckpt_serve.Engine
module Plan_cache = Ckpt_serve.Plan_cache
module Clock = Ckpt_obs.Clock
module Chain_problem = Ckpt_core.Chain_problem
module Chain_dp = Ckpt_core.Chain_dp
module Schedule = Ckpt_core.Schedule

let setups = 11
let cache_capacity = 1024
let drain_timeout_s = 10.0

(* The generator's lead: the stream starts this long after the sender
   thread does, so the first sends are not late by construction. *)
let lead_ns = 20_000_000L

(* --- live run ---------------------------------------------------------- *)

type live = {
  t0 : int64;  (** Stream origin: request i is due at [t0 + at_ns]. *)
  sent_ns : int64 array;  (** Actual send stamps; -1 if never sent. *)
  recv_ns : int64 array;  (** Response stamps; -1 if never answered. *)
  answers : string array;  (** Response payloads; "" if never answered. *)
  unmatched : int;  (** Responses whose id matched no pending request. *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Responses start with {"id":"r<index>"; anything else (an error
   without an id) matches no request. *)
let index_of_answer payload =
  let prefix = "{\"id\":\"" in
  if String.starts_with ~prefix payload then
    match String.index_from_opt payload (String.length prefix) '"' with
    | Some stop -> Mix.index_of_id (String.sub payload (String.length prefix) (stop - String.length prefix))
    | None -> None
  else None

let drive ~port (mix : Mix.t) =
  let requests = mix.Mix.requests in
  let n = Array.length requests in
  let sent_ns = Array.make n (-1L) and recv_ns = Array.make n (-1L) in
  let answers = Array.make n "" in
  let fd = connect port in
  let failed_write = Atomic.make false in
  let t0 = Int64.add (Clock.now_ns ()) lead_ns in
  let sender () =
    try
      Array.iteri
        (fun i (r : Mix.request) ->
          let wait = Int64.sub (Int64.add t0 r.Mix.at_ns) (Clock.now_ns ()) in
          if wait > 0L then Unix.sleepf (Int64.to_float wait /. 1e9);
          sent_ns.(i) <- Clock.now_ns ();
          write_all fd r.Mix.frame)
        requests
    with Unix.Unix_error _ -> Atomic.set failed_write true
  in
  let thread = Thread.create sender () in
  let decoder = Protocol.Framing.decoder () in
  let buf = Bytes.create 65536 in
  let received = ref 0 and unmatched = ref 0 and closed = ref false in
  let last_due = if n = 0 then t0 else Int64.add t0 requests.(n - 1).Mix.at_ns in
  let deadline = Int64.add last_due (Int64.of_float (drain_timeout_s *. 1e9)) in
  let rec pump now =
    match Protocol.Framing.next decoder with
    | None -> ()
    | Some (Protocol.Framing.Oversized _) -> closed := true
    | Some (Protocol.Framing.Frame payload) ->
        (match index_of_answer payload with
        | Some i when i >= 0 && i < n && recv_ns.(i) < 0L ->
            recv_ns.(i) <- now;
            answers.(i) <- payload;
            incr received
        | _ -> incr unmatched);
        pump now
  in
  while !received < n && (not !closed) && Clock.now_ns () < deadline do
    match Unix.select [ fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> closed := true
        | k ->
            let now = Clock.now_ns () in
            Protocol.Framing.feed decoder (Bytes.sub_string buf 0 k);
            pump now
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> closed := true)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Closing unblocks a sender stuck on a dead connection. *)
  if !received < n then (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join thread;
  Unix.close fd;
  if Atomic.get failed_write then Report.note "serve-mix: the connection failed while sending";
  { t0; sent_ns; recv_ns; answers; unmatched = !unmatched }

(* --- checks ------------------------------------------------------------ *)

type verdict = Good | Failed of string

let ms_of_ns ns = Int64.to_float ns /. 1e6

let number_field name json = Option.bind (Json.member name json) Json.to_float

let ints_field name json =
  match Option.bind (Json.member name json) Json.to_list with
  | Some l ->
      let ints = List.filter_map Json.to_int l in
      if List.length ints = List.length l then Some ints else None
  | None -> None

(* Offline answers, memoized by (base, scale). *)
let oracle (mix : Mix.t) =
  let memo = Hashtbl.create 1024 in
  fun base scale ->
    match Hashtbl.find_opt memo (base, scale) with
    | Some s -> s
    | None ->
        let sol = Chain_dp.solve_smawk (Mix.problem (Mix.scaled mix.Mix.bases.(base) scale)) in
        let s =
          (sol.Chain_dp.expected_makespan, Schedule.checkpoint_indices sol.Chain_dp.schedule)
        in
        Hashtbl.replace memo (base, scale) s;
        s

let judge ~solve ~engine (request : Mix.request) payload =
  if payload = "" then Failed "no_answer"
  else
    match Json.parse_result payload with
    | Error _ -> Failed "transport"
    | Ok json -> (
        match Json.member "ok" json with
        | Some (Json.Bool true) -> (
            let result = Option.value (Json.member "result" json) ~default:Json.Null in
            match request.Mix.body with
            | Mix.Ping -> if Json.equal result (Json.String "pong") then Good else Failed "wrong_answer"
            | Mix.Chain { base; scale } ->
                (* The offline plan of the instance as sent, which for a
                   rescaled instance is also exactly 2^k times its base's. *)
                let makespan, indices = solve base scale in
                let base_makespan, _ = solve base 0 in
                let ok =
                  (match number_field "expected_makespan" result with
                  | Some m -> Float.equal m makespan && Float.equal m (Float.ldexp base_makespan scale)
                  | None -> false)
                  && ints_field "checkpoints_after" result = Some indices
                in
                if ok then Good else Failed "wrong_answer"
            | Mix.Other -> (
                match Json.parse_result (Mix.payload request) with
                | Error _ -> Failed "wrong_answer"
                | Ok req_json -> (
                    match Protocol.parse_request req_json with
                    | Error _ -> Failed "wrong_answer"
                    | Ok req ->
                        if Json.equal json (Engine.handle engine req) then Good else Failed "wrong_answer")))
        | _ -> (
            match Option.bind (Json.member "error" json) (Json.member "code") with
            | Some (Json.String code) -> Failed code
            | _ -> Failed "transport"))

(* --- traced in-process replay ------------------------------------------ *)

type replay = {
  service_ns : float array;  (** Decode + handle + encode, per request. *)
  decode_s : float;
  decode_kib : float;
  handle_us : float array;
  encode_s : float;
  hits : int;
  chain_requests : int;
  evictions : int;
  make_s : float;
  chain_tasks : int;
  key_s : float;
  solve_s : float;
  solved_tasks : int;
  misses : int;
  fallbacks : int;
  transitions : int;
  solve_words : float;
  request_words : float;
  request_majors : int;
}

let replay (mix : Mix.t) =
  let requests = mix.Mix.requests in
  let n = Array.length requests in
  let engine = Engine.create ~cache_capacity in
  let service_ns = Array.make n 0.0 and handle_us = Array.make n 0.0 in
  let miss = Array.make n false in
  let decode_s = ref 0.0 and decode_bytes = ref 0 and encode_s = ref 0.0 in
  let hits = ref 0 and chain_requests = ref 0 in
  let evictions0 = Tracing.counter "serve.cache_evictions" in
  let words0 = Tracing.minor_words () and majors0 = Tracing.major_collections () in
  (* Pass 1: what the server does with each frame. *)
  Tracing.root "serve-mix.requests" (fun () ->
      Array.iteri
        (fun i (r : Mix.request) ->
          let payload = Mix.payload r in
          let t = Clock.now_ns () in
          let request =
            Tracing.layer "protocol.decode" (fun () ->
                match Json.parse_result payload with
                | Ok json -> Protocol.parse_request json
                | Error msg -> Error (Protocol.parse_error msg))
          in
          let t1 = Clock.now_ns () in
          let request = match request with Ok q -> q | Error _ -> failwith "replay: request does not decode" in
          let response = Tracing.layer "engine.handle" (fun () -> Engine.handle engine request) in
          let t2 = Clock.now_ns () in
          ignore
            (Tracing.layer "protocol.encode" (fun () -> Protocol.Framing.encode (Json.to_string response)));
          let t3 = Clock.now_ns () in
          decode_s := !decode_s +. (Int64.to_float (Int64.sub t1 t) /. 1e9);
          decode_bytes := !decode_bytes + String.length payload;
          encode_s := !encode_s +. (Int64.to_float (Int64.sub t3 t2) /. 1e9);
          handle_us.(i) <- Int64.to_float (Int64.sub t2 t1) /. 1e3;
          service_ns.(i) <- Int64.to_float (Int64.sub t3 t);
          match r.Mix.body with
          | Mix.Chain _ ->
              incr chain_requests;
              if Json.member "cache" response = Some (Json.String "hit") then incr hits
              else miss.(i) <- true
          | _ -> ())
        requests);
  let request_words = Tracing.minor_words () -. words0 in
  let request_majors = Tracing.major_collections () - majors0 in
  let evictions = Tracing.counter "serve.cache_evictions" - evictions0 in
  (* Pass 2: the chain layers inside plan_chain, one call each. *)
  let make_s = ref 0.0 and chain_tasks = ref 0 and key_s = ref 0.0 in
  let solve_s = ref 0.0 and solved_tasks = ref 0 and misses = ref 0 and solve_words = ref 0.0 in
  let fallbacks0 = Tracing.counter "dp.smawk_fallbacks" in
  let transitions0 = Tracing.counter "dp.smawk_transitions" + Tracing.counter "dp.transitions" in
  Tracing.root "serve-mix.chain-layers" (fun () ->
      Array.iteri
        (fun i (r : Mix.request) ->
          match r.Mix.body with
          | Mix.Chain { base; scale } ->
              let inst = Mix.scaled mix.Mix.bases.(base) scale in
              let tasks = Mix.tasks inst in
              let size = Mix.size inst in
              let (s, p) =
                Clock.time (fun () -> Tracing.layer "chain_problem.make" (fun () -> Mix.make inst tasks))
              in
              make_s := !make_s +. s;
              chain_tasks := !chain_tasks + size;
              let s, _ =
                Clock.time (fun () -> Tracing.layer "plan_cache.canonical_key" (fun () -> Plan_cache.canonical_key p))
              in
              key_s := !key_s +. s;
              if miss.(i) then begin
                let w0 = Tracing.minor_words () in
                let s, sol = Clock.time (fun () -> Tracing.layer "chain_dp.solve_smawk" (fun () -> Chain_dp.solve_smawk p)) in
                solve_words := !solve_words +. (Tracing.minor_words () -. w0);
                ignore
                  (Tracing.layer "schedule.checkpoint_indices" (fun () ->
                       Schedule.checkpoint_indices sol.Chain_dp.schedule));
                solve_s := !solve_s +. s;
                solved_tasks := !solved_tasks + size;
                incr misses
              end
          | _ -> ())
        requests);
  {
    service_ns;
    decode_s = !decode_s;
    decode_kib = float_of_int !decode_bytes /. 1024.0;
    handle_us;
    encode_s = !encode_s;
    hits = !hits;
    chain_requests = !chain_requests;
    evictions;
    make_s = !make_s;
    chain_tasks = !chain_tasks;
    key_s = !key_s;
    solve_s = !solve_s;
    solved_tasks = !solved_tasks;
    misses = !misses;
    fallbacks = Tracing.counter "dp.smawk_fallbacks" - fallbacks0;
    transitions = Tracing.counter "dp.smawk_transitions" + Tracing.counter "dp.transitions" - transitions0;
    solve_words = !solve_words;
    request_words;
    request_majors;
  }

(* --- the workload ------------------------------------------------------ *)

let percentile_detail name samples q =
  match Percentile.percentile (Percentile.sorted samples) q with
  | Some v -> Report.detail name ~unit:"ms" v
  | None -> Report.note "  %-38s withheld: fewer than %d samples beyond it" name Percentile.min_beyond

let run report ~seed ~seconds ~trace ~server_exe =
  (* A server that dies must fail the writes, not kill the generator. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let encode_s, mix = Clock.time (fun () -> Mix.generate ~seed ~span_s:seconds) in
  let requests = mix.Mix.requests in
  let n = Array.length requests in
  (* Every start but the last is a set-up sample only. *)
  let starts =
    List.init setups (fun i ->
        let server = Proc.start_server ~exe:server_exe in
        if i < setups - 1 then Proc.stop_server ~signal:Sys.sigkill server;
        server)
  in
  let server = List.nth starts (setups - 1) in
  let live = drive ~port:server.Proc.port mix in
  let server_rss = Proc.peak_rss_mb (Some server.Proc.pid) in
  Proc.stop_server server;
  Report.attempt ~n report;
  (* Verdicts. *)
  let solve = oracle mix in
  let engine = Engine.create ~cache_capacity in
  let verdicts = Array.map2 (fun r payload -> judge ~solve ~engine r payload) requests live.answers in
  Array.iter (function Good -> () | Failed cause -> Report.fail report cause) verdicts;
  (* Latency from the intended send time. *)
  let latency_ms =
    Array.mapi
      (fun i (r : Mix.request) ->
        if live.recv_ns.(i) < 0L then Float.infinity
        else ms_of_ns (Int64.sub live.recv_ns.(i) (Int64.add live.t0 r.Mix.at_ns)))
      requests
  in
  (* For the percentiles a failed request never arrives, so a server
     that refuses work does not look faster for it. *)
  let served_ms = Array.mapi (fun i l -> if verdicts.(i) = Good then l else Float.infinity) latency_ms in
  let late_ms =
    Array.mapi
      (fun i (r : Mix.request) ->
        if live.sent_ns.(i) < 0L then Float.infinity
        else ms_of_ns (Int64.sub live.sent_ns.(i) (Int64.add live.t0 r.Mix.at_ns)))
      requests
  in
  let last_recv = Array.fold_left Stdlib.max live.t0 live.recv_ns in
  let window_s = Int64.to_float (Int64.sub last_recv live.t0) /. 1e9 in
  let good = Array.fold_left (fun k l -> if l <= Mix.latency_limit_ms then k + 1 else k) 0 served_ms in
  let p50 = Percentile.median (Percentile.sorted served_ms) in
  (* Live cache behaviour, from each plan_chain answer's "cache" field,
     against the schedule: the first request of a base misses, every
     repeat hits. *)
  let seen = Hashtbl.create 1024 in
  let chain = ref 0 and repeats = ref 0 and live_hits = ref 0 in
  Array.iteri
    (fun i (r : Mix.request) ->
      match r.Mix.body with
      | Mix.Chain { base; _ } -> (
          incr chain;
          if Hashtbl.mem seen base then incr repeats else Hashtbl.add seen base ();
          match Json.parse_result live.answers.(i) with
          | Ok json when Json.member "cache" json = Some (Json.String "hit") -> incr live_hits
          | _ -> ())
      | _ -> ())
    requests;
  let distinct = Hashtbl.length seen in
  Report.note "serve-mix: %d requests over %.0f s at %.1f req/s offered (frames encoded in %.2f s)" n
    seconds Mix.rate encode_s;
  Report.note "  %d plan_chain, %d distinct instances (cache holds %d: %d evictions), %d repeats" !chain
    distinct cache_capacity (Stdlib.max 0 (distinct - cache_capacity)) !repeats;
  Report.note "  latency limit %.0f ms; %d unmatched answers" Mix.latency_limit_ms live.unmatched;
  Report.end_to_end report "op_time_ms" ~unit:"ms" p50;
  Report.end_to_end report "goodput_per_s" ~unit:"1/s" (float_of_int good /. window_s);
  let setup = Array.of_list (List.map (fun s -> s.Proc.setup_s) starts) in
  Report.end_to_end report "setup_s" ~unit:"s" (Percentile.median_of setup);
  Report.end_to_end report "peak_rss_mb" ~unit:"MiB" server_rss;
  Report.detail "serve_p50_ms" ~unit:"ms" p50;
  percentile_detail "serve_p99_ms" served_ms 0.99;
  Report.detail "serve_goodput_rps" ~unit:"req/s" (float_of_int good /. window_s);
  Report.samples "server start" ~unit:"s" setup;
  let late_sorted = Percentile.sorted late_ms in
  let late_p99 =
    match Percentile.percentile late_sorted 0.99 with Some v -> v | None -> late_sorted.(n - 1)
  in
  Report.detail "gen.late_p99_ms" ~unit:"ms" late_p99;
  if late_p99 > Mix.latency_limit_ms then
    Report.note "FLAGGED: the generator fell behind its schedule (late p99 %.1f ms > %.0f ms limit)"
      late_p99 Mix.latency_limit_ms;
  Report.detail "plan_cache.hit_share (live)" ~unit:"ratio"
    (float_of_int !live_hits /. float_of_int (Stdlib.max 1 !chain));
  if !live_hits <> !repeats then
    Report.note "  live cache hits %d differ from the %d repeats of the schedule" !live_hits !repeats;
  Report.check report "serve-mix answers equal the offline solver and in-process engine"
    (Array.for_all (fun v -> v <> Failed "wrong_answer") verdicts);
  Report.check report "serve-mix every request answered"
    (Array.for_all (fun v -> v <> Failed "no_answer") verdicts && live.unmatched = 0);
  if trace then begin
    Tracing.start ();
    let r = replay mix in
    ignore (Tracing.finish report ~workload:"serve-mix" ~seed);
    let fchain = float_of_int (Stdlib.max 1 r.chain_tasks) in
    let fsolved = float_of_int (Stdlib.max 1 r.solved_tasks) in
    let fn = float_of_int n in
    Report.detail "protocol.decode_us_per_kib" ~unit:"us" (r.decode_s *. 1e6 /. r.decode_kib);
    let handle = Percentile.sorted r.handle_us in
    Report.detail "engine.handle_us_p50" ~unit:"us" (Percentile.median handle);
    (match Percentile.percentile handle 0.99 with
    | Some v -> Report.detail "engine.handle_us_p99" ~unit:"us" v
    | None -> Report.note "  engine.handle_us_p99 withheld");
    Report.detail "plan_cache.key_us_per_task" ~unit:"us" (r.key_s *. 1e6 /. fchain);
    Report.detail "plan_cache.hit_share" ~unit:"ratio"
      (float_of_int r.hits /. float_of_int (Stdlib.max 1 r.chain_requests));
    Report.detail "plan_cache.evictions" ~unit:"count" (float_of_int r.evictions);
    Report.detail "chain_dp.fallback_share" ~unit:"ratio"
      (float_of_int r.fallbacks /. float_of_int (Stdlib.max 1 r.misses));
    Report.detail "protocol.encode_us" ~unit:"us" (r.encode_s *. 1e6 /. fn);
    let pings =
      Array.to_list requests
      |> List.filter_map (fun (q : Mix.request) ->
             if q.Mix.body = Mix.Ping then Some latency_ms.(q.Mix.index) else None)
      |> Array.of_list
    in
    if Array.length pings > 0 then
      Report.detail "net.ping_rtt_p50_ms" ~unit:"ms" (Percentile.median_of pings);
    let wait = Array.mapi (fun i l -> l -. (r.service_ns.(i) /. 1e6)) latency_ms in
    percentile_detail "server.queue_wait_p50_ms" wait 0.5;
    percentile_detail "server.queue_wait_p99_ms" wait 0.99;
    Report.detail "server.rejects" ~unit:"count"
      (float_of_int (Array.fold_left (fun acc v -> if v = Failed "queue_full" then acc + 1 else acc) 0 verdicts));
    Report.detail "gc.minor_words_per_request" ~unit:"words" (r.request_words /. fn);
    Report.detail "tracing overhead on op_time_ms" ~unit:"ratio" 1.0;
    Report.note "  (the live run records no spans: its figures are the same traced or not)";
    Report.per_layer report "chain_problem.make_us_per_task" ~unit:"us" (r.make_s *. 1e6 /. fchain);
    Report.per_layer report "chain_dp.solve_us_per_task" ~unit:"us" (r.solve_s *. 1e6 /. fsolved);
    Report.per_layer report "chain_dp.transitions_per_task" ~unit:"count"
      (float_of_int r.transitions /. fsolved);
    Report.per_layer report "chain_dp.minor_words_per_task" ~unit:"words" (r.solve_words /. fsolved);
    Report.per_layer report "gc.minor_words_per_op" ~unit:"words" (r.request_words /. fn);
    Report.per_layer report "gc.major_collections_per_op" ~unit:"count"
      (float_of_int r.request_majors /. fn)
  end
