(** Shared plumbing for the experiment modules. *)

type output =
  | Table of Ckpt_stats.Table.t
  | Figure of string  (** Pre-rendered ASCII figure (see {!Ckpt_stats.Ascii_plot}). *)

val print_output : output -> unit

type config = {
  seed : int64;
  quick : bool;
      (** Reduced replication counts for CI-sized runs; the full
          configuration is used to produce EXPERIMENTS.md. *)
  domains : int option;
      (** Monte-Carlo domain-pool size; [None] lets the simulator pick
          ({!Ckpt_sim.Domain_team.default_domains}). Tables are
          bit-identical whatever the value. *)
  target_ci : float option;
      (** When set, the simulation-backed experiments sample adaptively
          until the relative 99% CI half-width reaches this target
          (replication counts then become minimums, see
          {!Ckpt_sim.Monte_carlo}). *)
}

val default : config
(** seed 42, full size. *)

val rng : config -> string -> Ckpt_prng.Rng.t
(** Labelled substream of the experiment seed. *)

val runs : config -> full:int -> int
(** [full] replications, divided by 10 (min 100) in quick mode. *)

val time : (unit -> 'a) -> float * 'a
(** Monotonic wall-clock seconds of a thunk ({!Ckpt_obs.Clock.time}:
    immune to system clock adjustments, unlike [Unix.gettimeofday]). *)

val bool_cell : bool -> string
(** "yes"/"NO" table cell. *)
