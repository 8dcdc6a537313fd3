(** Structure-of-arrays DP tables on [Bigarray] float64/int, shared by
    every chain solver ({!Chain_dp} and {!Moldable_chain}).

    Million-task DP tables on boxed OCaml values are hostile to both
    the allocator and the cache: a [(float * int) array array] stores
    pointers to heap blocks, every read chases them, and the GC scans
    the lot on every major slice. The solvers instead keep one flat
    off-heap [float64] array per field (value, best) and one flat [int]
    array per field (choice), in C layout — contiguous, unboxed,
    invisible to the GC — and index them directly.

    The accessors are declared here as [external] Bigarray primitives,
    not as functions: every caller, in any module and under any build
    profile (including [-opaque], which hides function bodies from
    other modules), compiles a read to one unboxed load and a write to
    one store — no call, no boxed float. They are {e unchecked}: they
    exist for DP inner loops whose loop structure already establishes
    the bounds. Out-of-range indices are undefined behaviour; use them
    only under that discipline.

    Tables are created per solve and must stay function-local (or be
    annotated under the [unguarded-global-mutable] lint rule, which
    flags top-level Bigarray creation in [lib/] like any other shared
    mutable state). *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val floats : ?init:float -> int -> floats
(** [floats n] is a fresh length-[n] float64 table, filled with [init]
    (default [0.0]). Raises [Invalid_argument] if [n < 0]. *)

val ints : ?init:int -> int -> ints
(** [ints n] is a fresh length-[n] int table filled with [init]
    (default [0]). Raises [Invalid_argument] if [n < 0]. *)

external fget : floats -> int -> float = "%caml_ba_unsafe_ref_1"
(** Unchecked read. *)

external fset : floats -> int -> float -> unit = "%caml_ba_unsafe_set_1"
(** Unchecked write. *)

external iget : ints -> int -> int = "%caml_ba_unsafe_ref_1"
(** Unchecked read. *)

external iset : ints -> int -> int -> unit = "%caml_ba_unsafe_set_1"
(** Unchecked write. *)

val to_float_array : floats -> float array
(** Copy into a regular [float array] (for APIs that return one). *)
