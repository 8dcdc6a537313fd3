(* Order statistics with the tail rule used by every latency the
   benchmark reports: a percentile is published only when at least
   [min_beyond] samples lie strictly beyond its rank, so a "p99" is never
   the single slowest sample of a short window. *)

let min_beyond = 10

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank index of quantile [q] among [n] sorted samples. *)
let rank ~n q = Stdlib.max 0 (Stdlib.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let i = rank ~n q in
    if n - 1 - i >= min_beyond then Some sorted.(i) else None

let median sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Percentile.median: no samples"
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let median_of samples = median (sorted samples)
