(** Minimal JSON reader/writer shared by the bench subsystem and the
    observability analysis tools.

    The repo deliberately carries no JSON dependency; this is a small,
    strict recursive-descent parser covering everything the bench
    subsystem writes (and the {!Ckpt_obs.Metrics} JSON it embeds) plus
    the span JSONL streams: objects, arrays, strings with the standard
    escapes (including [\uXXXX] for BMP code points; surrogate pairs
    are rejected), numbers, booleans and [null].

    It exists so CI and the [ckpt-obs] analyzer can make {e typed}
    assertions about machine-readable output — "does the [metrics]
    object have a field named [mc.runs]" — instead of grepping raw
    text, where a key name inside any string value is a false
    positive. *)

type t =
  | Null
  | Bool of bool
  | Number of float  (** Always finite; non-finite floats serialize as [null]. *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Field order preserved; duplicate keys rejected. *)

exception Parse_error of string
(** Carries ["line L, column C: message"]. *)

val max_depth : int
(** The deepest nesting {!parse} accepts: 512 arrays and objects, one
    inside the other. *)

val parse : string -> t
(** Raises {!Parse_error}. Trailing non-whitespace is an error, and so
    is an array or object opened deeper than {!max_depth}, at its
    bracket. *)

val parse_result : string -> (t, string) result

val to_string : t -> string
(** Compact (single-line) serialization. Numbers print as integers when
    integral, else with enough digits to round-trip exactly through
    {!parse}. *)

val escape : string -> string
(** JSON string-content escaping (the characters between the quotes). *)

val equal : t -> t -> bool
(** Structural equality; numbers via [Float.equal], object fields
    order-sensitive (serialization is deterministic, so round-trips
    preserve order). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option

val to_int : t -> int option
(** Integral {!Number}s only. *)

val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
