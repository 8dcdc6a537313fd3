(** Registry of all experiments, run by [ckpt-experiments]. *)

type experiment = {
  id : string;  (** "E1" .. "E18". *)
  claim : string;
  run : Common.config -> Common.output list;
}

val all : experiment list
(** In order E1 .. E18. *)

val find : string -> experiment option
(** Case-insensitive lookup by id. *)

val run_and_print : Common.config -> experiment -> unit
(** Execute and print every table, with timing. *)
