(** A linear-chain scheduling instance (Section 5 of the paper): tasks
    T1 → … → Tn with weights w_i, per-task checkpoint costs C_i and
    recovery costs R_i, a platform failure rate λ, downtime D, and the
    recovery cost R0 of restarting from the initial state (used when a
    failure strikes before any checkpoint completed). *)

type t = private {
  tasks : Ckpt_dag.Task.t array;  (** In chain order; ids 0 .. n-1. *)
  lambda : float;  (** 0 < λ < ∞. *)
  downtime : float;  (** 0 <= D < ∞. *)
  initial_recovery : float;  (** 0 <= R0 < ∞. *)
  prefix_work : float array;
      (** [prefix_work.(i)] = w_0 + ... + w_(i-1); length n+1. *)
  kernel : Segment_cost.t;
      (** Precomputed O(1)-transition segment-cost tables for this
          chain, built once at construction (see {!Segment_cost}). *)
}

val make :
  ?downtime:float -> ?initial_recovery:float -> lambda:float -> Ckpt_dag.Task.t list -> t
(** Tasks are re-indexed 0..n-1 in list order. The chain must be
    non-empty and λ, D and R0 finite (else [Invalid_argument]).
    [downtime] and [initial_recovery] default to 0. *)

val of_dag :
  ?downtime:float -> ?initial_recovery:float -> lambda:float -> Ckpt_dag.Dag.t -> t
(** Raises [Invalid_argument] if the DAG is not a linear chain. *)

val uniform :
  ?downtime:float -> ?initial_recovery:float ->
  lambda:float -> checkpoint:float -> recovery:float -> float list -> t
(** Constant-cost instance (the Proposition 2 setting): one task per
    weight in [works], all with the same C and R. [initial_recovery]
    defaults to [recovery] here, matching the reduction's accounting
    where every segment pays e^(λC). *)

val size : t -> int
val total_work : t -> float

val segment_work : t -> first:int -> last:int -> float
(** Work of tasks [first..last] inclusive (0-based), in O(1). *)

val recovery_before : t -> int -> float
(** Recovery cost R_(x-1) used by a segment starting at task [x]:
    [initial_recovery] when [x = 0], else R of task [x-1]. *)

val segment_expected : t -> first:int -> last:int -> float
(** Expected duration (Proposition 1) of the segment executing tasks
    [first..last] and checkpointing after task [last]:
    e^(λ·R_(first-1)) (1/λ + D) (e^(λ(w_first+...+w_last+C_last)) − 1).
    Evaluated through the precomputed {!Segment_cost} kernel (within
    1e-9 relative of the direct [Expected_time] evaluation; identical
    in the small-λ(W+C) regime, where the kernel takes the same [expm1]
    path). Validates the bounds; the DP inner loops use {!kernel}
    directly instead, with bounds established once per solve. *)

val kernel : t -> Segment_cost.t
(** The chain's precomputed segment-cost kernel ({!Segment_cost}),
    built once at construction. *)

val with_lambda : t -> float -> t
(** Same chain under a different failure rate (for λ sweeps). *)

val pp : Format.formatter -> t -> unit
