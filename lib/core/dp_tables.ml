(* Structure-of-arrays DP table storage on Bigarray (see the mli).
   Thin by design: the point is one blessed place that creates the
   off-heap tables every chain solver shares, so the allocation story
   (and the lint rule guarding top-level scratch) stays auditable. *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let floats ?(init = 0.0) n : floats =
  if n < 0 then invalid_arg "Dp_tables.floats: negative length";
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a init;
  a

let ints ?(init = 0) n : ints =
  if n < 0 then invalid_arg "Dp_tables.ints: negative length";
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a init;
  a

external fget : floats -> int -> float = "%caml_ba_unsafe_ref_1"
external fset : floats -> int -> float -> unit = "%caml_ba_unsafe_set_1"
external iget : ints -> int -> int = "%caml_ba_unsafe_ref_1"
external iset : ints -> int -> int -> unit = "%caml_ba_unsafe_set_1"

let to_float_array (a : floats) =
  let copy = Array.create_float (Bigarray.Array1.dim a) in
  for i = 0 to Array.length copy - 1 do
    copy.(i) <- fget a i
  done;
  copy
