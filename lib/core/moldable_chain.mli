(** The second Section 6 extension: {e moldable} tasks in a linear
    chain. Each task can execute on any number of processors, with its
    own workload model W_i(p) and checkpoint-volume model C_i(p); the
    platform failure rate scales as λ(p) = p·λproc.

    The scheduler now decides three things: the checkpoint placement,
    and a processor count for every segment (tasks of one segment share
    an allocation — the allocation can only change at a checkpoint,
    since reshaping the execution mid-flight would require exactly the
    state capture a checkpoint performs). Under that model the problem
    stays polynomial: a dynamic program over
    (position, previous segment's allocation) — the latter is needed
    because the recovery cost of a rollback is the cost of reloading the
    {e previous} checkpoint, written at the previous allocation. *)

type task = private {
  name : string;
  total_work : float;  (** Sequential load of the task (> 0). *)
  workload : Moldable.workload;
  checkpoint : Moldable.overhead;  (** C_i(p) for a checkpoint after this task. *)
  recovery : Moldable.overhead;  (** R_i(p): reload cost of that checkpoint. *)
}

val task :
  ?name:string -> ?workload:Moldable.workload -> ?recovery:Moldable.overhead ->
  total_work:float -> checkpoint:Moldable.overhead -> unit -> task
(** Defaults: perfectly parallel workload; recovery = the checkpoint
    model. Raises [Invalid_argument] unless [total_work > 0] and the
    workload and both overheads pass {!Moldable.check_models}. *)

type problem = private {
  tasks : task array;
  max_processors : int;  (** P >= 1. *)
  proc_rate : float;  (** λproc > 0. *)
  downtime : float;
  initial_recovery : float;
      (** Restart-from-scratch cost (allocation-independent). *)
  candidates : int list;  (** Allowed allocations, increasing. *)
}

val problem :
  ?downtime:float -> ?initial_recovery:float -> ?candidates:int list ->
  max_processors:int -> proc_rate:float -> task list -> problem
(** [candidates] defaults to the powers of two up to [max_processors]
    (plus [max_processors] itself). *)

type solution = {
  expected_makespan : float;
  segments : (int * int * int) list;
      (** (first task, last task, processors) per segment, in order;
          every segment ends with a checkpoint. *)
}

val solve : problem -> solution
(** The O(n²·|candidates|²) dynamic program described above, on flat
    {!Dp_tables} structure-of-arrays storage. *)

val solve_fixed_allocation : problem -> processors:int -> Chain_dp.solution
(** Baseline: one allocation for the whole chain (reduces to the paper's
    Proposition 3 DP on the induced rigid chain). [processors] must be a
    candidate. *)

val best_fixed_allocation : problem -> int * Chain_dp.solution
(** The best single-allocation schedule across the candidates. *)

val chain_at : problem -> processors:int -> Chain_problem.t
(** The rigid chain induced by running everything at a fixed allocation
    (used by the baseline and the tests). *)
