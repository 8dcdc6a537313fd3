(* Tests of the benchmark's own helpers: the percentile rule, the
   open-loop schedule and the metric-name charset. *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let p q n = Percentile.percentile (Percentile.sorted (samples n)) q in
  Alcotest.(check (option (float 0.0))) "p99 of 1000 leaves exactly 10 beyond" (Some 990.0) (p 0.99 1000);
  Alcotest.(check (option (float 0.0))) "p99 of 999 leaves 9 beyond: withheld" None (p 0.99 999);
  Alcotest.(check (option (float 0.0))) "p99 of 100 is withheld" None (p 0.99 100);
  Alcotest.(check (option (float 0.0))) "p90 of 100 leaves exactly 10 beyond" (Some 90.0) (p 0.90 100);
  Alcotest.(check (option (float 0.0))) "no samples" None (p 0.5 0);
  Alcotest.(check (float 0.0)) "odd median" 3.0 (Percentile.median_of [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Percentile.median_of [| 4.0; 1.0; 3.0; 2.0 |])

let schedule seed =
  let mix = Mix.generate ~seed ~span_s:2.0 in
  Array.map (fun (r : Mix.request) -> (r.Mix.at_ns, r.Mix.frame)) mix.Mix.requests

let test_schedule_is_seeded () =
  let a = schedule 7 and b = schedule 7 and c = schedule 8 in
  Alcotest.(check int) "rate times span requests" (int_of_float (2.0 *. Mix.rate)) (Array.length a);
  Alcotest.(check bool) "same seed, same send times and bytes" true (a = b);
  Alcotest.(check bool) "another seed, other send times" true (Array.map fst a <> Array.map fst c);
  Alcotest.(check bool) "another seed, other bytes" true (Array.map snd a <> Array.map snd c);
  let times = Array.map fst a in
  Alcotest.(check bool) "send times sorted" true
    (Array.for_all Fun.id (Array.init (Array.length times - 1) (fun i -> times.(i) <= times.(i + 1))))

let test_repeats_wait_for_the_gap () =
  let mix = Mix.generate ~seed:3 ~span_s:5.0 in
  let first = Hashtbl.create 64 in
  let gap_ns = Int64.of_float (Mix.repeat_gap_s *. 1e9) in
  Array.iter
    (fun (r : Mix.request) ->
      match r.Mix.body with
      | Mix.Chain { base; _ } -> (
          match Hashtbl.find_opt first base with
          | None -> Hashtbl.add first base r.Mix.at_ns
          | Some at ->
              Alcotest.(check bool) "repeat due at least the gap after its base" true
                (Int64.sub r.Mix.at_ns at >= Int64.sub gap_ns 1L))
      | _ -> ())
    mix.Mix.requests

let test_metric_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Report.valid_name s))
    [ "op_time_ms"; "chain_dp.solve_us_per_task"; "serve-mix"; "9lives"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (Report.valid_name s))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "p99%"; "caf\xc3\xa9"; String.make 65 'a' ]

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "open-loop schedule is seeded" `Quick test_schedule_is_seeded;
          Alcotest.test_case "repeats wait for the gap" `Quick test_repeats_wait_for_the_gap;
          Alcotest.test_case "metric-name charset" `Quick test_metric_names;
        ] );
    ]
