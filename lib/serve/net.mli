(** The only module in [lib/] allowed to touch [Unix] sockets (enforced
    by the [banned-in-lib] lint rule, which allowlists exactly this
    file). Everything here is a thin, exception-to-value wrapper so the
    server and client logic stay testable and lint-clean.

    Errors are deliberately coarse: a connection that resets mid-read
    looks like EOF, a connection that resets mid-write looks like a
    failed write. The server treats both as "peer gone". *)

type fd = private Unix.file_descr
(** Private: a caller may coerce an [fd] to read its socket options
    (the tests check [TCP_NODELAY]), but only this module makes one. *)

val ignore_sigpipe : unit -> unit
(** Writes to a closed peer must surface as [EPIPE] (a failed
    {!write_all}), not kill the process. No-op where unsupported. *)

val listen : host:string -> port:int -> fd * int
(** Bind + listen on [host:port] ([port = 0] picks a free port) with
    [SO_REUSEADDR]; returns the listener and the actual port. *)

val accept : fd -> fd option
(** Non-blocking accept; [None] when no connection is pending. The
    accepted socket has [TCP_NODELAY] set (best-effort), so each
    response frame is sent as soon as it is written. *)

val connect : host:string -> port:int -> fd
(** Blocking connect, with [TCP_NODELAY] set (best-effort), so each
    request frame is sent as soon as it is written. *)

val read_chunk : fd -> string option
(** Up to 64 KiB; [None] means EOF or connection reset, [Some ""] that
    nothing was available (spurious wakeup on a non-blocking fd). *)

val write_all : fd -> string -> bool
(** Write the whole string; [false] on any error (peer gone). *)

val select_read : fd list -> timeout_s:float -> fd list
(** Readable subset, or [[]] on timeout. [EINTR]-safe. *)

val pipe : unit -> fd * fd
(** Self-pipe for waking a {!select_read} from another domain:
    (read end, write end). *)

val notify : fd -> unit
(** Write one byte to the pipe's write end (best-effort). *)

val drain : fd -> unit
(** Discard pending bytes on the pipe's read end. *)

val close : fd -> unit
(** Idempotent-ish: [EBADF] on double close is swallowed. *)

val equal : fd -> fd -> bool
