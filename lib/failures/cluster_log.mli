(** Synthetic per-node cluster failure logs.

    The paper's Section 6 points at replaying "failure logs of
    production clusters" (the Failure Trace Archive). Those logs are not
    redistributable here, so this module generates the closest synthetic
    equivalent: a log with one failure-time series per node, drawn from
    Weibull / LogNormal / Exponential laws with optional per-node
    heterogeneity, which exercises exactly the same code paths (per-node
    renewal clocks, platform-level superposition, non-memoryless
    residual times). *)

type node = { node_id : int; failure_times : float array  (** sorted *) }

type t = private {
  nodes : node array;
  horizon : float;
  description : string;
}

val generate :
  ?heterogeneity:float ->
  law:Ckpt_dist.Law.t -> nodes:int -> horizon:float -> Ckpt_prng.Rng.t -> t
(** Each node runs an independent renewal process with the given law;
    [heterogeneity] (default 0) rescales each node's times by a factor
    uniform in [1-h, 1+h], modelling unequal hardware quality. *)

val node_count : t -> int
val failure_count : t -> int
(** Total failures across nodes. *)

val merged_times : t -> float array
(** All failure times merged and sorted: the platform failure trace
    under coordinated checkpointing (any node failure stops the
    application). *)

val to_trace : t -> Trace.t
(** Platform-level trace view of the log. *)

val node_mtbf : t -> float array
(** Empirical MTBF per node ([infinity] for failure-free nodes). *)

val save : t -> string -> unit

val load : string -> t
(** Parse a file produced by {!save}. Raises [Failure "path:line:
    message"] on a bad count, a time out of order or not in
    [\[0, horizon\]], or a truncated file. *)
