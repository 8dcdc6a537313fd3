(** High-level random source used by every stochastic component.

    All experiments take an explicit seed and derive labelled substreams,
    so that any table in the repository is bit-reproducible. *)

type t
(** A mutable random stream. *)

val create : seed:int64 -> t
(** [create ~seed] builds the root stream for a seed. *)

val substream : t -> string -> t
(** [substream t label] derives an independent stream identified by
    [label]. The derivation depends only on the seed of [t] and on
    [label] (not on how much of [t] has been consumed), so components
    can be re-ordered without perturbing each other's draws. *)

val split : t -> t
(** [split t] returns a stream at [t]'s current position and advances
    [t] by 2^128 draws; successive splits never overlap. *)

val substream_run : t -> int -> t
(** [substream_run t r] is [substream t ("run-" ^ string_of_int r)],
    derived without building the label string:
    the canonical per-replication substream of the Monte-Carlo drivers.
    Because the derivation depends only on [t]'s seed and on [r], the
    sample set of a replication campaign is the same whether the run
    indices are drawn sequentially or spread over domains — the
    determinism anchor of {!Ckpt_sim.Parallel_exec}. It is
    [substream_of_prefix (run_prefix t) r]. *)

type run_prefix
(** [t]'s seed with the label prefix ["run-"] absorbed. *)

val run_prefix : t -> run_prefix
(** Absorbs ["run-"] once, for a loop of {!substream_of_prefix} calls. *)

val substream_of_prefix : run_prefix -> int -> t
(** [substream_of_prefix (run_prefix t) r] is [substream_run t r]. *)

val int64 : t -> int64
(** Uniform raw 64-bit value. *)

val float : t -> float
(** Uniform in [0, 1): 53 random mantissa bits. *)

val float_pos : t -> float
(** Uniform in (0, 1]: safe as argument to [log]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [lo, hi). Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val shuffle : t -> 'a list -> 'a list
(** Functional shuffle of a list. *)

val seed_of : t -> int64
(** The seed this stream was created from (for reporting). *)
