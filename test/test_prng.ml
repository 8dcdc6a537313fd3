(* Tests for the deterministic PRNG substrate. *)

module Splitmix64 = Ckpt_prng.Splitmix64
module Xoshiro256 = Ckpt_prng.Xoshiro256
module Rng = Ckpt_prng.Rng

let check_int64 = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

let test_splitmix_deterministic () =
  let a = Splitmix64.create 1234L and b = Splitmix64.create 1234L in
  for _ = 1 to 100 do
    Alcotest.check check_int64 "same seed, same stream" (Splitmix64.next a)
      (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  let outputs_a = List.init 10 (fun _ -> Splitmix64.next a) in
  let outputs_b = List.init 10 (fun _ -> Splitmix64.next b) in
  Alcotest.(check bool) "different seeds diverge" false (outputs_a = outputs_b)

let test_of_label () =
  Alcotest.check check_int64 "label derivation is deterministic"
    (Splitmix64.of_label 7L "alpha") (Splitmix64.of_label 7L "alpha");
  Alcotest.(check bool) "labels distinguish" false
    (Splitmix64.of_label 7L "alpha" = Splitmix64.of_label 7L "beta");
  Alcotest.(check bool) "prefix labels distinguish" false
    (Splitmix64.of_label 7L "ab" = Splitmix64.of_label 7L "abc");
  Alcotest.(check bool) "seed matters" false
    (Splitmix64.of_label 7L "alpha" = Splitmix64.of_label 8L "alpha")

let test_xoshiro_deterministic () =
  let a = Xoshiro256.create 99L and b = Xoshiro256.create 99L in
  for _ = 1 to 100 do
    Alcotest.check check_int64 "same seed, same stream" (Xoshiro256.next_int64 a)
      (Xoshiro256.next_int64 b)
  done

let test_xoshiro_copy () =
  let a = Xoshiro256.create 5L in
  ignore (Xoshiro256.next_int64 a);
  let b = Xoshiro256.copy a in
  Alcotest.check check_int64 "copy continues identically" (Xoshiro256.next_int64 a)
    (Xoshiro256.next_int64 b);
  ignore (Xoshiro256.next_int64 a);
  (* advancing one does not affect the other *)
  let a1 = Xoshiro256.next_int64 a and b1 = Xoshiro256.next_int64 b in
  Alcotest.(check bool) "streams now independent" false (a1 = b1)

let test_xoshiro_split_disjoint () =
  let parent = Xoshiro256.create 11L in
  let child = Xoshiro256.split parent in
  let child_outputs = List.init 64 (fun _ -> Xoshiro256.next_int64 child) in
  let parent_outputs = List.init 64 (fun _ -> Xoshiro256.next_int64 parent) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "child output not in parent prefix" false
        (List.mem c parent_outputs))
    child_outputs

let test_float_range_unit () =
  let rng = Rng.create ~seed:3L in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (x >= 0.0 && x < 1.0)
  done;
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    Alcotest.(check bool) "float_pos in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_float_uniformity () =
  let rng = Rng.create ~seed:17L in
  let bins = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.float rng in
    bins.(int_of_float (x *. 10.0)) <- bins.(int_of_float (x *. 10.0)) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = float_of_int n /. 10.0 in
      Alcotest.(check bool)
        (Printf.sprintf "bin %d within 5%% of uniform" i)
        true
        (Float.abs (float_of_int count -. expected) < 0.05 *. expected))
    bins

let test_int_bounds () =
  let rng = Rng.create ~seed:23L in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Array.iteri
    (fun i hit -> Alcotest.(check bool) (Printf.sprintf "value %d reached" i) true hit)
    seen

let test_bool_balanced () =
  let rng = Rng.create ~seed:29L in
  let trues = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "bool roughly fair" true (ratio > 0.48 && ratio < 0.52)

let test_shuffle_multiset () =
  let rng = Rng.create ~seed:31L in
  let original = List.init 50 Fun.id in
  let shuffled = Rng.shuffle rng original in
  Alcotest.(check (list int)) "same multiset" original (List.sort compare shuffled);
  Alcotest.(check bool) "actually permuted" false (original = shuffled)

let test_substream_independent_of_consumption () =
  (* The substream depends only on seed and label, not on draws made on
     the parent before derivation. *)
  let a = Rng.create ~seed:41L in
  ignore (Rng.float a);
  ignore (Rng.float a);
  let sub_a = Rng.substream a "worker" in
  let b = Rng.create ~seed:41L in
  let sub_b = Rng.substream b "worker" in
  for _ = 1 to 20 do
    Alcotest.check check_int64 "substream reproducible" (Rng.int64 sub_a) (Rng.int64 sub_b)
  done

let test_substream_run_equals_label () =
  (* The string-free derivation of the run substreams equals the
     labelled one, at the sign and magnitude edges too. *)
  let root = Rng.create ~seed:20121212L in
  let check r =
    let fast = Rng.substream_run root r
    and slow = Rng.substream root ("run-" ^ string_of_int r) in
    if not (Int64.equal (Rng.seed_of fast) (Rng.seed_of slow)
            && Int64.equal (Rng.int64 fast) (Rng.int64 slow))
    then Alcotest.failf "substream_run %d differs from substream \"run-%d\"" r r
  in
  for r = 0 to 100_000 do
    check r
  done;
  List.iter check [ max_int; -1; min_int ]

let test_substream_run_digit_edges () =
  (* The digits are taken in two parts above 10^17: run indices on both
     sides of each power of ten, with runs of zeros, through the
     per-batch prefix too. *)
  let root = Rng.create ~seed:20121212L in
  let prefix = Rng.run_prefix root in
  let check r =
    let slow = Rng.substream root ("run-" ^ string_of_int r) in
    List.iter
      (fun (how, fast) ->
        if not (Int64.equal (Rng.seed_of fast) (Rng.seed_of slow)) then
          Alcotest.failf "%s %d differs from substream \"run-%d\"" how r r)
      [ ("substream_run", Rng.substream_run root r);
        ("substream_of_prefix", Rng.substream_of_prefix prefix r) ]
  in
  let p = ref 1 in
  for _ = 0 to 18 do
    List.iter
      (fun r -> check r; check (-r))
      [ !p - 1; !p; !p + 1; 7 * !p; (!p * 10) - 1 ];
    p := !p * 10
  done;
  List.iter check [ 100_000_000_000_000_007; 4_000_000_000_000_000_000; max_int - 1; min_int + 1 ]

let test_xoshiro_pinned () =
  (* The first outputs of seed 0, pinned: the state layout may change,
     the sequence may not (every seeded table depends on it). *)
  let x = Xoshiro256.create 0L in
  List.iter
    (fun expected -> Alcotest.check check_int64 "pinned output" expected (Xoshiro256.next_int64 x))
    [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL;
      0xbba5ad4a1f842e59L ];
  let child = Xoshiro256.split x in
  Alcotest.check check_int64 "parent after jump" 0xfd4c3ae46ca64165L (Xoshiro256.next_int64 x);
  Alcotest.check check_int64 "child at the split point" 0xffef8375d9ebcacaL
    (Xoshiro256.next_int64 child)

let test_substream_labels_distinct () =
  let rng = Rng.create ~seed:43L in
  let a = Rng.substream rng "x" and b = Rng.substream rng "y" in
  Alcotest.(check bool) "distinct labels give distinct streams" false
    (List.init 5 (fun _ -> Rng.int64 a) = List.init 5 (fun _ -> Rng.int64 b))

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Rng.int is always within bounds" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let qcheck_float_range =
  QCheck.Test.make ~name:"Rng.float_range stays in its interval" ~count:1000
    QCheck.(triple small_int (float_range (-1000.0) 1000.0) (float_range 0.0 1000.0))
    (fun (seed, lo, width) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let hi = lo +. width in
      let x = Rng.float_range rng lo hi in
      x >= lo && (x < hi || hi = lo))

let suite =
  [
    Alcotest.test_case "splitmix64 determinism" `Quick test_splitmix_deterministic;
    Alcotest.test_case "splitmix64 seed sensitivity" `Quick test_splitmix_seed_sensitivity;
    Alcotest.test_case "label-derived sub-seeds" `Quick test_of_label;
    Alcotest.test_case "xoshiro determinism" `Quick test_xoshiro_deterministic;
    Alcotest.test_case "xoshiro copy semantics" `Quick test_xoshiro_copy;
    Alcotest.test_case "xoshiro split disjoint" `Quick test_xoshiro_split_disjoint;
    Alcotest.test_case "xoshiro pinned outputs" `Quick test_xoshiro_pinned;
    Alcotest.test_case "substream_run = labelled substream" `Quick
      test_substream_run_equals_label;
    Alcotest.test_case "substream_run at the digit edges" `Quick
      test_substream_run_digit_edges;
    Alcotest.test_case "float ranges" `Quick test_float_range_unit;
    Alcotest.test_case "float uniformity" `Quick test_float_uniformity;
    Alcotest.test_case "int bounds and coverage" `Quick test_int_bounds;
    Alcotest.test_case "bool balance" `Quick test_bool_balanced;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_multiset;
    Alcotest.test_case "substream reproducibility" `Quick
      test_substream_independent_of_consumption;
    Alcotest.test_case "substream label separation" `Quick test_substream_labels_distinct;
    QCheck_alcotest.to_alcotest qcheck_int_in_range;
    QCheck_alcotest.to_alcotest qcheck_float_range;
  ]
