(* The 256-bit state lives in one 32-byte buffer, words s0..s3 at byte
   offsets 0, 8, 16 and 24. Loads and stores of the words compile to
   unboxed 64-bit moves, so a draw allocates only its boxed result. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 32 in
  Splitmix64.fill seed t;
  t

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for i = 0 to 3 do
            set acc (8 * i) (Int64.logxor (get acc (8 * i)) (get t (8 * i)))
          done;
        ignore (next_int64 t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32

let split t =
  (* The child takes over the current position; the parent jumps 2^128
     steps ahead, so child and parent (and any further splits) draw from
     pairwise disjoint segments of the sequence. *)
  let child = copy t in
  jump t;
  child
