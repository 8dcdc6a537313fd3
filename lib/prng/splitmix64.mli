(** SplitMix64: a tiny, fast, well-distributed 64-bit generator.

    Used here mainly to expand user-supplied seeds into full generator
    states, and to derive independent sub-seeds from string labels.
    Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
    generators", OOPSLA 2014. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a generator from an arbitrary 64-bit seed. *)

val next : t -> int64
(** [next t] returns the next 64-bit output and advances the state. *)

val fill : int64 -> Bytes.t -> unit
(** [fill seed buf] writes the first [Bytes.length buf / 8] outputs of
    [create seed] into [buf] as native-endian 64-bit words, without
    boxing them. *)

val of_label : int64 -> string -> int64
(** [of_label seed label] deterministically derives a 64-bit sub-seed
    from [seed] and a human-readable [label]. Distinct labels give
    (with overwhelming probability) unrelated sub-seeds. *)

val prefix : int64 -> string -> int64
(** [prefix seed p] absorbs the label prefix [p] into [seed], once, for
    any number of {!of_prefix_int} derivations. *)

val of_prefix_int : int64 -> int -> int64
(** [of_prefix_int (prefix seed p) n] is
    [of_label seed (p ^ string_of_int n)], computed without building the
    string; the digits of [n] are taken by divisions by constants. *)
