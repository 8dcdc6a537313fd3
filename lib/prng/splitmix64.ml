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

let prefix acc s =
  let acc = ref acc in
  for i = 0 to String.length s - 1 do
    acc := absorb !acc (Char.code (String.unsafe_get s i))
  done;
  !acc

let of_label seed label = mix (prefix seed label)

(* Absorbs the decimal digits of the non-positive [m], most significant
   first, padded with zeros to [width] digits. The digits are reversed
   into [rev] under a leading 1 that marks where they end, then read
   back; both passes divide only by the constant 10. [rev] holds up to 18
   digits, so [m] must have at most 17. *)
let[@inline] absorb_digits acc m ~width =
  let rev = ref 1 and m = ref m and w = ref 0 in
  while !m < 0 || !w < width do
    let q = !m / 10 in
    rev := (!rev * 10) + ((q * 10) - !m);
    m := q;
    incr w
  done;
  let acc = ref acc in
  while !rev > 1 do
    let q = !rev / 10 in
    acc := absorb !acc (Char.code '0' + (!rev - (q * 10)));
    rev := q
  done;
  !acc

let e17 = 100_000_000_000_000_000

let of_prefix_int acc n =
  (* The bytes of [string_of_int n]: a '-' when negative, then the digits
     of the magnitude, kept non-positive so that [min_int] needs no
     negation. A magnitude of 18 or 19 digits absorbs its digits above
     the lowest 17 first. *)
  let acc = if n < 0 then absorb acc (Char.code '-') else acc in
  let m = if n < 0 then n else -n in
  let high = m / e17 in
  if high < 0 then
    mix (absorb_digits (absorb_digits acc high ~width:1) (m - (high * e17)) ~width:17)
  else mix (absorb_digits acc m ~width:1)
