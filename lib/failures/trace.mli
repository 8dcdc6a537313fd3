(** Recorded platform failure traces: generation, statistics, and a
    plain-text serialisation so workloads can be archived and replayed
    (our stand-in for the Failure Trace Archive logs cited by the
    paper). *)

type t = private {
  times : float array;  (** Sorted absolute failure times. *)
  horizon : float;  (** Observation window [0, horizon]. *)
  processors : int;
  law : string;  (** Human-readable description of the generating law. *)
  seed : int64;  (** Seed used for generation (0 if unknown/imported). *)
}

val generate :
  ?rejuvenation:Failure_stream.rejuvenation -> platform:Platform.t -> horizon:float ->
  Ckpt_prng.Rng.t -> t
(** Record every platform failure in [0, horizon]. *)

val of_times : ?processors:int -> ?law:string -> ?seed:int64 -> horizon:float ->
  float array -> t
(** Wrap external data; validates sortedness, positivity and the
    horizon. *)

val count : t -> int
val inter_arrival : t -> float array
(** Gaps between consecutive failures (first gap measured from 0). *)

val mtbf : t -> float
(** Empirical mean time between failures, horizon / count;
    [infinity] for an empty trace. *)

val to_stream : t -> Failure_stream.t
(** Replay source for the simulator. *)

val save : t -> string -> unit
(** Write to a file (text format: a small header, one time per line). *)

val load : string -> t
(** Parse a file produced by {!save}. Raises [Failure "path:line:
    message"] on malformed input, as {!Cluster_log.load} does. *)
