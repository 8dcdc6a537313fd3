type fd = Unix.file_descr

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | (_ : Sys.signal_behavior) -> ()
  | exception Invalid_argument _ -> ()
  | exception Sys_error _ -> ()

let resolve host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  Unix.ADDR_INET (addr, port)

let listen ~host ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (resolve host port);
     Unix.listen sock 64;
     Unix.set_nonblock sock
   with exn ->
     Unix.close sock;
     raise exn);
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (sock, actual_port)

(* Every connection carries small request/response frames that must
   leave at once. With Nagle's algorithm on, a frame written while an
   earlier one is still unacknowledged waits for the peer's ACK: on a
   pipelined connection that is the peer's next frame or its delayed-ACK
   timer (40 ms or more). Best-effort: a socket that refuses the option
   still works, only slower. *)
let no_delay sock =
  try Unix.setsockopt sock Unix.TCP_NODELAY true with Unix.Unix_error (_, _, _) -> ()

let accept listener =
  match Unix.accept ~cloexec:true listener with
  | sock, _addr ->
      Unix.set_nonblock sock;
      no_delay sock;
      Some sock
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      None
  | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EPERM), _, _) -> None

let connect ~host ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (resolve host port)
   with exn ->
     Unix.close sock;
     raise exn);
  no_delay sock;
  sock

let chunk_size = 65536

let read_chunk fd =
  let buf = Bytes.create chunk_size in
  let rec go () =
    match Unix.read fd buf 0 chunk_size with
    | 0 -> None
    | n -> Some (Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Some ""
    | exception Unix.Unix_error (_, _, _) -> None
  in
  go ()

let write_all fd s =
  let bytes = Bytes.unsafe_of_string s in
  let total = Bytes.length bytes in
  let rec go off =
    if off >= total then true
    else
      match Unix.write fd bytes off (total - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          (* Connection sockets are non-blocking (the reader side needs
             that); block here until writable rather than spin. *)
          match Unix.select [] [ fd ] [] 5.0 with
          | _, [ _ ], _ -> go off
          | _ -> false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

let select_read fds ~timeout_s =
  match Unix.select fds [] [] timeout_s with
  | readable, _, _ -> readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let pipe () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  (r, w)

let notify fd =
  match Unix.write_substring fd "x" 0 1 with
  | (_ : int) -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

let drain fd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
let equal (a : fd) b = a = b
