(** The scaling scenarios of Section 3: how the expected execution time
    of a checkpointed load varies with the number p of processors, for
    the paper's workload models W(p) and checkpoint-cost models C(p),
    with platform failure rate λ(p) = p·λproc.

    Workload models (total sequential load W_total):
    - perfectly parallel jobs: W(p) = W_total / p;
    - generic parallel jobs (Amdahl): W(p) = (1−γ)W_total/p + γW_total;
    - numerical kernels: W(p) = W_total/p + γ·W_total^(2/3)/√p.

    Checkpoint overhead (memory footprint V, α the I/O constant):
    - proportional: C(p) = R(p) = αV/p (per-processor link bottleneck);
    - constant: C(p) = R(p) = αV (stable-storage bottleneck). *)

type workload =
  | Perfectly_parallel
  | Amdahl of float  (** γ in [0, 1): inherently sequential fraction. *)
  | Numerical_kernel of float  (** γ > 0: communication-to-computation ratio. *)

type overhead =
  | Proportional of float  (** αV: C(p) = αV/p. *)
  | Constant of float  (** αV: C(p) = αV. *)

type scenario = private {
  total_work : float;  (** W_total > 0. *)
  workload : workload;
  overhead : overhead;
  proc_rate : float;  (** λproc > 0. *)
  downtime : float;  (** D >= 0. *)
}

val check_models : string -> workload -> overhead list -> unit
(** [check_models fn workload overheads] raises
    [Invalid_argument "fn: ..."] unless the model parameters lie in
    their ranges: Amdahl γ ∈ [0, 1), kernel γ > 0, and αV > 0 for every
    overhead. Shared by {!scenario} and [Moldable_chain.task]. *)

val scenario :
  ?downtime:float ->
  total_work:float -> workload:workload -> overhead:overhead -> proc_rate:float ->
  unit -> scenario
(** Raises [Invalid_argument] unless [total_work > 0], [proc_rate > 0],
    [downtime >= 0] and the models pass {!check_models}. *)

val work_of : workload:workload -> total_work:float -> p:int -> float
(** W(p) for a given model and sequential load (standalone helper, also
    used by {!Moldable_chain}). *)

val cost_of : overhead -> p:int -> float
(** C(p) for a given overhead model. *)

val work : scenario -> p:int -> float
(** W(p). *)

val checkpoint_cost : scenario -> p:int -> float
(** C(p) = R(p). *)

val lambda : scenario -> p:int -> float
(** λ(p) = p·λproc. *)

val expected_time : scenario -> p:int -> Approximations.divisible
(** Expected execution time on p processors under the {e optimal}
    divisible segmentation of W(p) (chunk count from
    {!Approximations.optimal_divisible}). *)

val sweep : scenario -> ps:int list -> (int * Approximations.divisible) list
(** {!expected_time} across processor counts. *)

val optimal_processors : scenario -> max_p:int -> int * Approximations.divisible
(** The processor count in [1, max_p] minimising the expected time
    (exhaustive scan — the function need not be unimodal once integer
    chunk counts are involved). *)

val workload_to_string : workload -> string
val overhead_to_string : overhead -> string
