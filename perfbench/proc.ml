(* Child processes and memory readings. Every ckpt-serve child is
   recorded in [live] until it has been reaped, so an early exit of the
   benchmark still stops and waits for it ([stop_all]). *)

module Clock = Ckpt_obs.Clock
module Client = Ckpt_serve.Client
module Json = Ckpt_json.Json

let live : int list ref = ref []

(* VmHWM (peak resident set) of a process, in MiB, from /proc. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM line in " ^ path)
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kib -> kib) with
            | Some kib -> float_of_int kib /. 1024.0
            | None -> scan ())
      in
      scan ())

type server = { pid : int; port : int; out : in_channel; setup_s : float }

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun p -> p <> pid) !live

let kill_and_reap signal pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  reap pid

let stop_all () = List.iter (kill_and_reap Sys.sigkill) !live

(* Start [exe serve --port 0], read the bound port from its banner, and
   answer one ping: the set-up time runs from process start to that
   answer. The server keeps its default configuration otherwise. *)
let start_server ~exe =
  let t0 = Clock.now_ns () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve"; "--port"; "0" |] Unix.stdin out_w Unix.stderr in
  live := pid :: !live;
  Unix.close out_w;
  let out = Unix.in_channel_of_descr out_r in
  let port =
    match In_channel.input_line out with
    | Some line -> (
        match Scanf.sscanf_opt line "ckpt-serve: listening on %_s@:%d" (fun p -> p) with
        | Some p -> p
        | None -> failwith ("unexpected ckpt-serve banner: " ^ line))
    | None -> failwith "ckpt-serve exited before listening"
  in
  let client = Client.connect ~port () in
  let pong = Client.call client ~id:"setup-ping" "ping" in
  let setup_s = Clock.elapsed_s t0 in
  Client.close client;
  (match Json.member "result" pong with
  | Some (Json.String "pong") -> ()
  | _ -> failwith ("set-up ping failed: " ^ Json.to_string pong));
  { pid; port; out; setup_s }

(* SIGTERM makes ckpt-serve drain its queue before exiting. *)
let stop_server ?(signal = Sys.sigterm) server =
  kill_and_reap signal server.pid;
  close_in_noerr server.out
