(** The named, tagged benchmark cases that [ckpt-bench] runs. Every
    case is deterministic given its fixed seed; only its timing
    varies.

    Tags (used by [ckpt-bench run --tag]): [kernel] (closed forms and
    other micro-kernels), [dp] (chain/partition dynamic programs), [dc]
    (the monotone divide-and-conquer chain solver at
    n ∈ {800, 3200, 12800}), [scaling] (the chain DP at
    n ∈ {50, 200, 800, 3200}, exposing the O(n²) curve, the
    divide-and-conquer cases, and the Monte-Carlo pool at 1/2/4/8
    domains), [sim] (simulator throughput), [mc] (Monte-Carlo pool),
    [dist] (distribution kernels). *)

type kind =
  | Micro of (unit -> unit)
      (** Timed per-iteration by the Bechamel harness (GC-stabilized,
          geometric run growth). *)
  | Macro of { repeats : int; fn : unit -> unit }
      (** Timed per-invocation with the monotonic clock; [repeats]
          samples in full mode (fewer in quick mode), after one
          untimed warmup call. *)

type case = { name : string; tags : string list; kind : kind }

val all : quick:bool -> case list
(** Every case, in fixed order. [quick] shrinks the workloads (notably
    the Monte-Carlo run counts), not just the sample counts, so it is
    safe on 2-core CI runners. *)

val assert_mc_deterministic : unit -> unit
(** Runs the mc-pool workload (10,000 runs) at 1, 2, 3, 4 and 8
    domains and compares every {!Ckpt_sim.Monte_carlo.estimate} field
    with the 1-domain run; raises [Failure] naming the field and the
    domain count on the first difference. Run by [ckpt-bench run] and
    [check] after the cases, so a determinism break can never hide
    behind a green timing gate. *)
