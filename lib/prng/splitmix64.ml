type t = { mutable state : int64 }

let create seed = { state = seed }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let fill seed buf =
  let state = ref seed in
  for i = 0 to (Bytes.length buf / 8) - 1 do
    state := Int64.add !state golden_gamma;
    set64 buf (8 * i) (mix !state)
  done

(* Absorb one label byte FNV-style into the accumulator, then mix it
   through the SplitMix64 finalizer so that labels sharing a prefix
   still diverge completely. *)
let[@inline] absorb acc byte = mix (Int64.mul (Int64.logxor acc (Int64.of_int byte)) 0x100000001B3L)

let absorb_string acc s =
  let acc = ref acc in
  for i = 0 to String.length s - 1 do
    acc := absorb !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

let of_label seed label = mix (absorb_string seed label)

let of_label_int seed prefix n =
  let acc = ref (absorb_string seed prefix) in
  (* The decimal digits of [n], most significant first, as
     [string_of_int] writes them. The magnitude is kept non-positive so
     that [min_int] needs no negation. *)
  if n < 0 then acc := absorb !acc (Char.code '-');
  let m = ref (if n < 0 then n else -n) in
  let p = ref 1 in
  while !m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    let digit = - (!m / !p) in
    acc := absorb !acc (Char.code '0' + digit);
    m := !m + (digit * !p);
    p := !p / 10
  done;
  mix !acc
