(** A workflow task, as in Section 2 of the paper: a computational
    weight [work] (w_i), the cost [checkpoint_cost] (C_i) of taking a
    checkpoint right after the task, and the cost [recovery_cost] (R_i)
    of recovering from that checkpoint. *)

type id = int
(** Tasks in a DAG of size n carry ids 0 .. n-1. *)

type t = private {
  id : id;
  name : string;
  work : float;  (** w_i > 0 *)
  checkpoint_cost : float;  (** C_i >= 0 *)
  recovery_cost : float;  (** R_i >= 0 *)
}

val make :
  id:id -> ?name:string -> work:float -> ?checkpoint_cost:float -> ?recovery_cost:float ->
  unit -> t
(** [make ~id ~work ()] builds a task. [name] defaults to ["T<id+1>"]
    (paper numbering); costs default to 0. Raises [Invalid_argument] on
    negative id, non-positive work or negative costs; NaN work or costs
    are rejected the same way. *)

val with_costs : t -> checkpoint_cost:float -> recovery_cost:float -> t
(** Copy with replaced costs (for cost-model sweeps on one workload).
    Raises [Invalid_argument] on negative or NaN costs. *)

val with_id : t -> id -> t
(** Copy with a new id (used when re-indexing sub-workflows); the task
    itself when it already has that id. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
