type t = { gen : Xoshiro256.t; seed : int64 }

let create ~seed = { gen = Xoshiro256.create seed; seed }

let substream t label =
  let sub_seed = Splitmix64.of_label t.seed label in
  { gen = Xoshiro256.create sub_seed; seed = sub_seed }

let split t = { t with gen = Xoshiro256.split t.gen }

type run_prefix = int64

let run_prefix t = Splitmix64.prefix t.seed "run-"

let substream_of_prefix prefix run =
  let sub_seed = Splitmix64.of_prefix_int prefix run in
  { gen = Xoshiro256.create sub_seed; seed = sub_seed }

let substream_run t run = substream_of_prefix (run_prefix t) run

let int64 t = Xoshiro256.next_int64 t.gen

let float t =
  (* Top 53 bits give a uniform dyadic rational in [0,1). *)
  Int64.to_float (Int64.shift_right_logical (int64 t) 11) *. 0x1.0p-53

let float_pos t = 1.0 -. float t

let float_range t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let raw = Int64.shift_right_logical (int64 t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub raw v > Int64.sub Int64.max_int (Int64.sub n64 1L) then draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle t l =
  let arr = Array.of_list l in
  shuffle_in_place t arr;
  Array.to_list arr

let seed_of t = t.seed
