(* Tests for the precomputed O(1)-transition segment-cost kernel: the
   product-form tables must track the reference exp/expm1 evaluation
   across the small-argument fallback boundary and abandon the tables
   wholesale across the overflow boundary. *)

module Generate = Ckpt_dag.Generate
module Rng = Ckpt_prng.Rng
module Chain_problem = Ckpt_core.Chain_problem
module Segment_cost = Ckpt_core.Segment_cost

(* Relative agreement against the documented 1e-9 kernel tolerance. *)
let rel_close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| rel < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

(* A kernel built directly from raw duration arrays (no Chain_problem),
   exercising the create-from-tables path the moldable DP uses. *)
let kernel_of ~lambda ~downtime ~works ~checkpoints ~recoveries =
  let n = Array.length works in
  let prefix_work = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    prefix_work.(i + 1) <- prefix_work.(i) +. works.(i)
  done;
  Segment_cost.create ~lambda ~downtime ~prefix_work ~checkpoint_costs:checkpoints
    ~recovery_costs:recoveries

let random_arrays rng n ~lo ~hi =
  Array.init n (fun _ -> Rng.float_range rng lo hi)

(* Every (first, last) pair of the kernel against the reference
   evaluation — the core agreement property. *)
let check_all_pairs name kernel =
  let n = Segment_cost.size kernel in
  for first = 0 to n - 1 do
    for last = first to n - 1 do
      rel_close
        (Printf.sprintf "%s (%d, %d)" name first last)
        (Segment_cost.reference_cost kernel ~first ~last)
        (Segment_cost.cost kernel ~first ~last)
    done
  done

let test_agreement_heterogeneous () =
  (* λ spans ten orders of magnitude so segment arguments λ·(W+C) land
     on both sides of the adaptive small threshold: the tiny-λ kernels
     take the expm1 fallback on every transition, the large-λ ones the
     product form, and the middle ones mix the two. *)
  let rng = Rng.create ~seed:515L in
  List.iter
    (fun lambda ->
      let n = 1 + Rng.int rng 24 in
      let kernel =
        kernel_of ~lambda ~downtime:(Rng.float_range rng 0.0 2.0)
          ~works:(random_arrays rng n ~lo:0.5 ~hi:20.0)
          ~checkpoints:(random_arrays rng n ~lo:0.01 ~hi:3.0)
          ~recoveries:(random_arrays rng n ~lo:0.01 ~hi:3.0)
      in
      check_all_pairs (Printf.sprintf "lambda=%g" lambda) kernel)
    [ 1e-9; 1e-7; 1e-5; 1e-3; 1e-1; 1.0; 10.0 ]

let test_small_threshold_boundary () =
  (* Work values straddling the adaptive cutoff: transitions with
     λ·(W+C) just below small_threshold take expm1, just above take the
     product form, and both must agree with the reference. *)
  let lambda = 1e-6 in
  let works = [| 0.1; 0.4; 2.0; 10.0; 50.0; 200.0; 800.0; 3000.0 |] in
  let kernel =
    kernel_of ~lambda ~downtime:0.5 ~works ~checkpoints:(Array.make 8 0.0)
      ~recoveries:(Array.make 8 0.05)
  in
  let threshold = Segment_cost.small_threshold kernel in
  Alcotest.(check bool) "tables active" true (Segment_cost.uses_tables kernel);
  (* The instance really does straddle the cutoff. *)
  let below = ref false and above = ref false in
  let prefix = Array.make 9 0.0 in
  Array.iteri (fun i w -> prefix.(i + 1) <- prefix.(i) +. w) works;
  for first = 0 to 7 do
    for last = first to 7 do
      let a = lambda *. (prefix.(last + 1) -. prefix.(first)) in
      if a < threshold then below := true else above := true
    done
  done;
  Alcotest.(check bool) "some transitions below the cutoff" true !below;
  Alcotest.(check bool) "some transitions above the cutoff" true !above;
  check_all_pairs "threshold boundary" kernel

let test_overflow_boundary () =
  (* λ·(total work + max C) just below the cutoff keeps the tables;
     just above abandons them — and the two kernels agree with their
     references (and each other) on every transition either way. *)
  let make total =
    kernel_of ~lambda:1.0 ~downtime:1.0
      ~works:(Array.make 10 (total /. 10.0))
      ~checkpoints:(Array.make 10 0.0) ~recoveries:(Array.make 10 0.0)
  in
  let under = make (Segment_cost.overflow_cutoff -. 1.0) in
  let over = make (Segment_cost.overflow_cutoff +. 1.0) in
  Alcotest.(check bool) "under cutoff: tables" true (Segment_cost.uses_tables under);
  Alcotest.(check bool) "over cutoff: reference mode" false (Segment_cost.uses_tables over);
  check_all_pairs "just under the cutoff" under;
  check_all_pairs "just over the cutoff" over;
  (* Full-chain costs are finite on both sides of the cutoff... *)
  Alcotest.(check bool) "finite below" true
    (Float.is_finite (Segment_cost.cost under ~first:0 ~last:9));
  Alcotest.(check bool) "finite above" true
    (Float.is_finite (Segment_cost.cost over ~first:0 ~last:9));
  (* ...and saturate to infinity together once λ·(W+C) passes ~709.78:
     the fallback boundary does not move the overflow point. *)
  let saturated = make 720.0 in
  Alcotest.(check bool) "saturated kernel is in reference mode" false
    (Segment_cost.uses_tables saturated);
  Alcotest.(check bool) "kernel cost overflows to infinity" true
    (Float.equal (Segment_cost.cost saturated ~first:0 ~last:9) infinity);
  Alcotest.(check bool) "reference cost overflows to infinity" true
    (Float.equal (Segment_cost.reference_cost saturated ~first:0 ~last:9) infinity)

let test_chain_problem_kernel_identity () =
  (* The kernel embedded in a Chain_problem reproduces
     segment_expected exactly (same code path). *)
  let rng = Rng.create ~seed:808L in
  let spec = Generate.uniform_costs () in
  let dag = Generate.chain rng spec ~n:12 in
  let p = Chain_problem.of_dag ~downtime:0.3 ~initial_recovery:0.4 ~lambda:0.07 dag in
  let kernel = Chain_problem.kernel p in
  Alcotest.(check int) "kernel size" 12 (Segment_cost.size kernel);
  for first = 0 to 11 do
    for last = first to 11 do
      Alcotest.(check bool)
        (Printf.sprintf "segment_expected = kernel cost (%d, %d)" first last)
        true
        (Float.equal
           (Chain_problem.segment_expected p ~first ~last)
           (Segment_cost.cost kernel ~first ~last))
    done
  done

let test_monotone_dc_support () =
  (* Uniform cost tables qualify; generated chains (costs in [0.1, 1],
     works >= 1) qualify; a recovery spike larger than the adjacent
     task weight disqualifies; overflow mode disqualifies. *)
  let uniform =
    kernel_of ~lambda:0.05 ~downtime:0.2 ~works:(Array.make 6 2.0)
      ~checkpoints:(Array.make 6 0.5) ~recoveries:(Array.make 6 0.5)
  in
  Alcotest.(check bool) "uniform chain qualifies" true
    (Segment_cost.supports_monotone_dc uniform);
  Alcotest.(check int) "uniform chain certified from row 0" 0
    (Segment_cost.certified_from uniform);
  (* Identical tasks qualify only when R - R0 <= w. Chain_problem.make
     defaults R0 to 0, so 1,000 tasks with w = 1 and C = R = 2 fail at
     row 0 — and only there; Chain_problem.uniform defaults R0 to R. *)
  let identical_kernel ?initial_recovery () =
    Chain_problem.uniform ?initial_recovery ~lambda:1e-3 ~checkpoint:2.0 ~recovery:2.0
      (List.init 1000 (fun _ -> 1.0))
    |> Chain_problem.kernel
  in
  let identical ?initial_recovery () =
    Segment_cost.supports_monotone_dc (identical_kernel ?initial_recovery ())
  in
  Alcotest.(check bool) "identical tasks, R0 = 0, disqualify" false
    (identical ~initial_recovery:0.0 ());
  Alcotest.(check int) "identical tasks, R0 = 0, certified from row 1" 1
    (Segment_cost.certified_from (identical_kernel ~initial_recovery:0.0 ()));
  Alcotest.(check bool) "identical tasks, R0 = 1, qualify" true
    (identical ~initial_recovery:1.0 ());
  Alcotest.(check bool) "identical tasks, R0 = R = 2, qualify" true
    (identical ~initial_recovery:2.0 ());
  Alcotest.(check bool) "Chain_problem.uniform defaults R0 to R" true (identical ());
  let rng = Rng.create ~seed:66L in
  let dag = Generate.chain rng (Generate.uniform_costs ()) ~n:40 in
  let p = Chain_problem.of_dag ~downtime:0.2 ~lambda:0.1 dag in
  Alcotest.(check bool) "generated chain qualifies" true
    (Segment_cost.supports_monotone_dc (Chain_problem.kernel p));
  let spiked =
    kernel_of ~lambda:0.05 ~downtime:0.2 ~works:(Array.make 6 2.0)
      ~checkpoints:(Array.make 6 0.5)
      ~recoveries:[| 0.5; 0.5; 0.5; 9.0; 0.5; 0.5 |]
  in
  Alcotest.(check bool) "recovery spike disqualifies" false
    (Segment_cost.supports_monotone_dc spiked);
  let ckpt_drop =
    kernel_of ~lambda:0.05 ~downtime:0.2 ~works:(Array.make 6 2.0)
      ~checkpoints:[| 0.5; 0.5; 9.0; 0.5; 0.5; 0.5 |]
      ~recoveries:(Array.make 6 0.5)
  in
  Alcotest.(check bool) "checkpoint drop larger than a weight disqualifies" false
    (Segment_cost.supports_monotone_dc ckpt_drop);
  (* A cliff at task i fails index i, so SMAWK covers rows i + 1 up;
     with several cliffs the last one decides. *)
  List.iter
    (fun cliffs ->
      let checkpoints = Array.make 6 0.5 in
      List.iter (fun i -> checkpoints.(i) <- 9.0) cliffs;
      let kernel =
        kernel_of ~lambda:0.05 ~downtime:0.2 ~works:(Array.make 6 2.0) ~checkpoints
          ~recoveries:(Array.make 6 0.5)
      in
      let last = List.fold_left max 0 cliffs in
      Alcotest.(check int)
        (Printf.sprintf "checkpoint cliff at task %d certified from row %d" last (last + 1))
        (last + 1)
        (Segment_cost.certified_from kernel))
    [ [ 0 ]; [ 2 ]; [ 4 ]; [ 1; 3 ] ];
  (* The spike is R_3: rows 2 and 3 break a's monotonicity. *)
  Alcotest.(check int) "recovery spike at row 3 certified from row 3" 3
    (Segment_cost.certified_from spiked);
  (* A cliff on the last task has no later index to fail. *)
  let last_cliff =
    kernel_of ~lambda:0.05 ~downtime:0.2 ~works:(Array.make 6 2.0)
      ~checkpoints:[| 0.5; 0.5; 0.5; 0.5; 0.5; 9.0 |]
      ~recoveries:(Array.make 6 0.5)
  in
  Alcotest.(check int) "cliff on the last task certified from row 0" 0
    (Segment_cost.certified_from last_cliff);
  let overflow =
    kernel_of ~lambda:1.0 ~downtime:0.2 ~works:(Array.make 6 200.0)
      ~checkpoints:(Array.make 6 0.5) ~recoveries:(Array.make 6 0.5)
  in
  Alcotest.(check bool) "overflow mode disqualifies" false
    (Segment_cost.supports_monotone_dc overflow);
  Alcotest.(check int) "overflow mode certifies no row" 6
    (Segment_cost.certified_from overflow)

let test_shape_validation () =
  Alcotest.check_raises "empty chain rejected"
    (Invalid_argument "Segment_cost.create: empty chain") (fun () ->
      ignore
        (Segment_cost.create ~lambda:0.1 ~downtime:0.0 ~prefix_work:[| 0.0 |]
           ~checkpoint_costs:[||] ~recovery_costs:[||]));
  Alcotest.check_raises "prefix length checked"
    (Invalid_argument "Segment_cost.create: prefix_work must have length n + 1")
    (fun () ->
      ignore
        (Segment_cost.create ~lambda:0.1 ~downtime:0.0 ~prefix_work:[| 0.0; 1.0; 2.0 |]
           ~checkpoint_costs:[| 0.5 |] ~recovery_costs:[| 0.5 |]));
  Alcotest.check_raises "recovery length checked"
    (Invalid_argument "Segment_cost.create: recovery_costs must have length n")
    (fun () ->
      ignore
        (Segment_cost.create ~lambda:0.1 ~downtime:0.0 ~prefix_work:[| 0.0; 1.0 |]
           ~checkpoint_costs:[| 0.5 |] ~recovery_costs:[| 0.5; 0.5 |]));
  (* The checked entry point validates the segment before the
     unchecked kernel reads any table. *)
  let kernel =
    Segment_cost.create ~lambda:0.1 ~downtime:0.0 ~prefix_work:[| 0.0; 1.0; 2.0 |]
      ~checkpoint_costs:[| 0.5; 0.5 |] ~recovery_costs:[| 0.5; 0.5 |]
  in
  List.iter
    (fun (first, last) ->
      Alcotest.check_raises
        (Printf.sprintf "cost bounds checked (%d, %d)" first last)
        (Invalid_argument "Segment_cost.cost: bad segment bounds")
        (fun () -> ignore (Segment_cost.cost kernel ~first ~last)))
    [ (-1, 0); (1, 0); (0, 2) ]

let qcheck_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = reference on random chains (all pairs)" ~count:120
    QCheck.(triple (int_range 1 16) (int_range 0 10_000) (int_range (-8) 1))
    (fun (n, seed, lambda_exp) ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 31_000)) in
      let lambda =
        (10.0 ** float_of_int lambda_exp) *. Rng.float_range rng 0.5 2.0
      in
      let kernel =
        kernel_of ~lambda ~downtime:(Rng.float_range rng 0.0 1.0)
          ~works:(random_arrays rng n ~lo:0.1 ~hi:15.0)
          ~checkpoints:(random_arrays rng n ~lo:0.0 ~hi:2.0)
          ~recoveries:(random_arrays rng n ~lo:0.0 ~hi:2.0)
      in
      let ok = ref true in
      for first = 0 to n - 1 do
        for last = first to n - 1 do
          let reference = Segment_cost.reference_cost kernel ~first ~last in
          let fast = Segment_cost.cost kernel ~first ~last in
          if Float.abs (fast -. reference) > 1e-9 *. Float.max 1.0 (Float.abs reference)
          then ok := false
        done
      done;
      !ok)

(* The kernel's bits against the formula recomputed with fresh exp
   calls, under Float.equal: with a = (λP(j+1) − λP(x)) + λC_j and
   pre = e^(λR_x)·(1/λ + D), a segment costs
   pre·(e^(λP(j+1))·e^(λC_j)·e^(−λP(x)) − 1) when the tables are on and
   a ≥ small_threshold, and pre·expm1 a otherwise. The chains mix runs
   of equal C and R with runs of distinct ones, and λ ranges from
   all-expm1 chains through mixed ones to past the overflow cutoff. *)
let qcheck_kernel_bits =
  QCheck.Test.make ~name:"kernel bits = fresh-exp formula" ~count:200
    QCheck.(triple (int_range 1 40) (int_range 0 10_000) (int_range 0 4))
    (fun (n, seed, regime) ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 57_000)) in
      let lambda =
        Rng.float_range rng 0.5 2.0 *. [| 1e-8; 1e-4; 1e-2; 0.3; 40.0 |].(regime)
      in
      (* A cost repeats its predecessor half the time. *)
      let costs () =
        let c = Array.make n (Rng.float_range rng 0.0 3.0) in
        for i = 1 to n - 1 do
          c.(i) <- (if Rng.bool rng then c.(i - 1) else Rng.float_range rng 0.0 3.0)
        done;
        c
      in
      let works = random_arrays rng n ~lo:0.5 ~hi:25.0 in
      let checkpoints = costs () and recoveries = costs () in
      let downtime = Rng.float_range rng 0.0 2.0 in
      let kernel = kernel_of ~lambda ~downtime ~works ~checkpoints ~recoveries in
      let prefix = Array.make (n + 1) 0.0 in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- prefix.(i) +. works.(i)
      done;
      let lp i = lambda *. prefix.(i) in
      let max_lam_ckpt =
        Array.fold_left (fun m c -> Float.max m (lambda *. c)) 0.0 checkpoints
      in
      let lam_span = lp n +. max_lam_ckpt in
      let tables = lam_span <= Segment_cost.overflow_cutoff in
      let threshold = Float.max 1e-6 (lam_span *. 1e-5) in
      let ok =
        ref
          (Bool.equal tables (Segment_cost.uses_tables kernel)
          && Float.equal threshold (Segment_cost.small_threshold kernel))
      in
      for x = 0 to n - 1 do
        let pre = exp (lambda *. recoveries.(x)) *. ((1.0 /. lambda) +. downtime) in
        for j = x to n - 1 do
          let a = lp (j + 1) -. lp x +. (lambda *. checkpoints.(j)) in
          let expected =
            if tables && a >= threshold then
              pre *. ((exp (lp (j + 1)) *. exp (lambda *. checkpoints.(j)) *. exp (-.lp x)) -. 1.0)
            else pre *. Float.expm1 a
          in
          if not (Float.equal expected (Segment_cost.cost kernel ~first:x ~last:j)) then
            ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "kernel = reference across lambda decades" `Quick
      test_agreement_heterogeneous;
    Alcotest.test_case "small-argument fallback boundary" `Quick
      test_small_threshold_boundary;
    Alcotest.test_case "overflow fallback boundary" `Quick test_overflow_boundary;
    Alcotest.test_case "Chain_problem kernel identity" `Quick
      test_chain_problem_kernel_identity;
    Alcotest.test_case "monotone divide-and-conquer support" `Quick
      test_monotone_dc_support;
    Alcotest.test_case "shape validation" `Quick test_shape_validation;
    QCheck_alcotest.to_alcotest qcheck_kernel_matches_reference;
    QCheck_alcotest.to_alcotest qcheck_kernel_bits;
  ]
