(** Checkpoint placements on a linear chain and their exact expected
    makespan.

    A placement is a boolean per task: [true] means "checkpoint right
    after this task". Following the paper's model (Algorithm 1 and the
    Proposition 2 accounting), the final task is always checkpointed —
    the application state must be saved for the workflow to be complete. *)

type t = private {
  problem : Chain_problem.t;
  placement : bool array;  (** Length n; last element [true]. *)
}

val make : Chain_problem.t -> bool array -> t
(** Validates the length and the final checkpoint. *)

val of_indices : Chain_problem.t -> int list -> t
(** Checkpoints after the listed (0-based) task indices, plus the
    mandatory final one. *)

val of_first_segment_ends : Chain_problem.t -> (int -> int) -> t
(** [of_first_segment_ends problem choice] is the placement a chain DP
    reads off its choice table: the segment from task [x] ends at
    [choice x], so the chain checkpoints after [choice 0], then after
    [choice (choice 0 + 1)], and so on up to the final task. [choice]
    is called once per segment, in chain order (a budget DP's table
    depends on how many segments came before). The placement is built
    once and becomes the schedule's own array, with no copy. Raises
    [Invalid_argument] if a segment from [x] would end outside
    [x .. n-1]. *)

val checkpoint_all : Chain_problem.t -> t
(** Checkpoint after every task. *)

val checkpoint_none : Chain_problem.t -> t
(** Only the mandatory final checkpoint. *)

val every_k : Chain_problem.t -> int -> t
(** Checkpoint after every k-th task (k >= 1), plus the final one. *)

val by_work_threshold : Chain_problem.t -> threshold:float -> t
(** Greedy periodic-in-work placement: checkpoint as soon as the work
    accumulated since the last checkpoint reaches [threshold]
    (threshold > 0). With the Young/Daly period as threshold this is
    the classical divisible-load policy lifted to tasks. *)

val young : Chain_problem.t -> t
(** {!by_work_threshold} with Young's period, using the mean checkpoint
    cost of the chain and the platform MTBF 1/λ. *)

val daly : Chain_problem.t -> t
(** {!by_work_threshold} with Daly's higher-order period. *)

val segments : t -> (int * int) list
(** Consecutive segments as (first, last) index pairs, in order. *)

val checkpoint_count : t -> int
(** Number of checkpoints taken (including the final one). *)

val checkpoint_indices : t -> int list
(** 0-based indices of checkpointed tasks, increasing. *)

val expected_makespan : t -> float
(** Exact expectation: sum of Proposition 1 over the segments. *)

val to_sim_segments : t -> Ckpt_sim.Sim_run.segment list
(** Convert for the discrete-event simulator. *)

val decide_of : t -> Ckpt_sim.Sim_run.chain_context -> bool
(** Static decision function for the policy-driven simulator. *)

val equal : t -> t -> bool
(** Same placement (problems assumed identical). *)

val to_string : t -> string
(** E.g. ["[T1 T2 | T3 | T4 T5 |]"], a ["|"] marking each checkpoint. *)

val pp : Format.formatter -> t -> unit
