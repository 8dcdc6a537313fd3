(* Tests for the observability layer: monotonic clock, sharded metrics
   (bucket edges, scoped collectors, cross-domain determinism), span
   nesting, and the golden shape of the trace exports. *)

module Clock = Ckpt_obs.Clock
module Metrics = Ckpt_obs.Metrics
module Span = Ckpt_obs.Span
module Monte_carlo = Ckpt_sim.Monte_carlo
module Sim_run = Ckpt_sim.Sim_run
module Rng = Ckpt_prng.Rng

let find name =
  match
    List.find_opt (fun (n, _, _) -> n = name) (Metrics.snapshot ())
  with
  | Some (_, _, v) -> v
  | None -> Alcotest.failf "metric %S not in snapshot" name

let counter_value name =
  match find name with
  | Metrics.Counter n -> n
  | _ -> Alcotest.failf "metric %S is not a counter" name

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_clock_monotonic () =
  let stamps = Array.init 1000 (fun _ -> Clock.now_ns ()) in
  Array.iteri
    (fun i t ->
      if i > 0 && Int64.compare t stamps.(i - 1) < 0 then
        Alcotest.failf "clock went backwards at stamp %d" i)
    stamps;
  let dt, x = Clock.time (fun () -> 42) in
  Alcotest.(check int) "thunk result passed through" 42 x;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

let test_histogram_bucket_edges () =
  let h = Metrics.histogram "test.hist_edges" ~buckets:[| 1.0; 2.0; 5.0 |] in
  Metrics.reset ();
  (* Boundary values land in the bucket whose bound they equal (le
     semantics); above the last bound, infinity and NaN all overflow;
     below the first bound lands in bucket 0. *)
  List.iter (Metrics.observe h)
    [ 0.5; 1.0; -3.0; 1.5; 2.0; 5.0; 5.1; infinity; Float.nan ];
  match find "test.hist_edges" with
  | Metrics.Histogram data ->
      Alcotest.(check (array int)) "bucket counts (last slot = overflow)"
        [| 3; 2; 1; 3 |] data.Metrics.counts;
      Alcotest.(check int) "observation count" 9 data.Metrics.observations
  | _ -> Alcotest.fail "expected a histogram"

let test_histogram_validation () =
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: empty buckets") (fun () ->
      ignore (Metrics.histogram "test.hist_empty" ~buckets:[||]));
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Metrics.histogram: bounds must be strictly increasing")
    (fun () -> ignore (Metrics.histogram "test.hist_flat" ~buckets:[| 1.0; 1.0 |]));
  Alcotest.check_raises "NaN bound"
    (Invalid_argument "Metrics.histogram: NaN bucket bound") (fun () ->
      ignore (Metrics.histogram "test.hist_nan" ~buckets:[| 1.0; Float.nan |]));
  Alcotest.check_raises "re-registration with a different type"
    (Invalid_argument "Metrics: \"test.retype\" re-registered with a different type")
    (fun () ->
      ignore (Metrics.counter "test.retype");
      ignore (Metrics.gauge "test.retype"))

let test_scoped_collector_isolation () =
  let c = Metrics.counter "test.scoped" in
  Metrics.reset ();
  let col = Metrics.create_collector () in
  Metrics.with_collector col (fun () -> Metrics.incr ~by:3 c);
  Alcotest.(check int) "scoped emissions invisible before merge" 0
    (counter_value "test.scoped");
  Metrics.merge_into ~dst:(Metrics.current ()) col;
  Metrics.merge_into ~dst:(Metrics.current ()) col;
  Alcotest.(check int) "merge adds (twice here)" 6 (counter_value "test.scoped")

(* The acceptance guarantee: the deterministic (Engine) section of the
   snapshot is identical whatever the domain count — integer counters
   commute, and float sums are accumulated per fixed-grid batch and
   merged in batch order. *)
let engine_section () =
  List.filter_map
    (fun (name, kind, v) -> if kind = Metrics.Engine then Some (name, v) else None)
    (Metrics.snapshot ())

let test_engine_metrics_identical_across_domains () =
  let segments = [ Sim_run.segment ~work:7.0 ~checkpoint:0.7 ~recovery:1.2 ] in
  let fixed domains =
    Monte_carlo.estimate_segments ~domains ~model:(Monte_carlo.Poisson_rate 0.08)
      ~downtime:0.4 ~runs:3000 ~rng:(Rng.create ~seed:515L) segments
  in
  (* Six doubling rounds on one team, converging before the cap: the
     multi-round path is where the team is reused. *)
  let adaptive domains =
    Monte_carlo.estimate_segments ~domains ~target_ci:0.03 ~max_runs:6400
      ~model:(Monte_carlo.Poisson_rate 0.08) ~downtime:0.4 ~runs:100
      ~rng:(Rng.create ~seed:515L) segments
  in
  List.iter
    (fun (input, min_rounds, campaign) ->
      let snap domains =
        Metrics.reset ();
        ignore (campaign domains);
        engine_section ()
      in
      let reference = snap 1 in
      Alcotest.(check bool)
        (input ^ ": reference campaign emitted metrics")
        true
        (List.exists (fun (n, v) -> n = "sim.failures" && v <> Metrics.Counter 0) reference);
      Alcotest.(check bool)
        (Printf.sprintf "%s: at least %d adaptive rounds" input min_rounds)
        true
        (match List.assoc_opt "mc.adaptive_rounds" reference with
        | Some (Metrics.Counter n) -> n >= min_rounds
        | _ -> false);
      List.iter
        (fun domains ->
          let got = snap domains in
          Alcotest.(check bool)
            (Printf.sprintf "%s: engine section bit-identical (%d domains)" input domains)
            true
            (compare reference got = 0))
        [ 2; 3; 7; 8 ])
    [ ("fixed", 0, fixed); ("adaptive", 3, adaptive) ];
  Metrics.reset ()

let test_hit_rate_derived_row () =
  let hits = Metrics.counter "test.lookup_hits" in
  let misses = Metrics.counter "test.lookup_misses" in
  Metrics.reset ();
  Metrics.incr ~by:3 hits;
  Metrics.incr misses;
  let table = Metrics.render_table (Metrics.snapshot ()) in
  Alcotest.(check bool) "derived hit-rate row present" true
    (contains table "test.lookup_hit_rate");
  Alcotest.(check bool) "3/(3+1) = 0.75" true (contains table "0.75");
  Metrics.reset ()

let test_span_nesting_and_exception_unwinding () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ());
          (try Span.with_ ~name:"boom" (fun () -> raise Exit) with Exit -> ());
          Span.instant "marker");
      (* The depth counter must be unwound by the exception: a sibling
         span recorded afterwards is back at depth 0. *)
      Span.with_ ~name:"after" (fun () -> ()));
  let rs = Span.records () in
  let depth_of name =
    match List.find_opt (fun r -> r.Span.name = name) rs with
    | Some r -> r.Span.depth
    | None -> Alcotest.failf "span %S not recorded" name
  in
  Alcotest.(check int) "outer at depth 0" 0 (depth_of "outer");
  Alcotest.(check int) "inner nested" 1 (depth_of "inner");
  Alcotest.(check int) "raising span nested" 1 (depth_of "boom");
  Alcotest.(check int) "instant inherits depth" 1 (depth_of "marker");
  Alcotest.(check int) "depth restored after exception" 0 (depth_of "after");
  let boom = List.find (fun r -> r.Span.name = "boom") rs in
  Alcotest.(check (option string))
    "exception-closed span tagged" (Some "true")
    (List.assoc_opt "raised" boom.Span.args);
  Span.reset ();
  Span.with_ ~name:"disabled" (fun () -> ());
  Alcotest.(check int) "no recording while disabled" 0 (List.length (Span.records ()))

(* Regression: a hits/misses pair registered but never consulted used
   to derive 0/0 = NaN; the contract is an unset gauge rendered n/a. *)
let test_hit_rate_zero_over_zero () =
  let _hits = Metrics.counter "test.coldcache_hits" in
  let _misses = Metrics.counter "test.coldcache_misses" in
  Metrics.reset ();
  (match Metrics.find (Metrics.hit_rates (Metrics.snapshot ())) "test.coldcache_hit_rate" with
  | Some (_, Metrics.Gauge None) -> ()
  | Some (_, Metrics.Gauge (Some x)) ->
      Alcotest.failf "0/0 hit rate derived %g instead of an unset gauge" x
  | Some _ -> Alcotest.fail "derived hit-rate row is not a gauge"
  | None -> Alcotest.fail "0/0 pair derived no hit-rate row at all");
  let table = Metrics.render_table (Metrics.snapshot ()) in
  Alcotest.(check bool) "row renders as n/a, not NaN" false (contains table "nan");
  Metrics.reset ()

let test_sink_flush_order_and_idempotency () =
  let buf = Buffer.create 16 in
  let sink tag () = Buffer.add_string buf tag in
  Ckpt_obs.Sink.register ~name:"test-a" (sink "a");
  Ckpt_obs.Sink.register ~name:"test-b" (sink "b");
  Ckpt_obs.Sink.register ~name:"test-c" (sink "c");
  (* Re-registering an unflushed sink keeps its registration slot. *)
  Ckpt_obs.Sink.register ~name:"test-b" (sink "B");
  Ckpt_obs.Sink.flush ();
  Alcotest.(check string) "registration order, replacement moves to back" "acB"
    (Buffer.contents buf);
  Ckpt_obs.Sink.flush ();
  Alcotest.(check string) "second flush is a no-op" "acB" (Buffer.contents buf);
  Ckpt_obs.Sink.register ~name:"test-b" (sink "b2");
  Ckpt_obs.Sink.flush ();
  Alcotest.(check string) "re-registration re-arms just that sink" "acBb2"
    (Buffer.contents buf)

(* The per-domain depth counter must unwind on exception paths on every
   domain, not just the one that ran the test harness. *)
let test_span_exception_unwinding_across_domains () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      let work () =
        Span.with_ ~name:"outer" (fun () ->
            (try
               Span.with_ ~name:"boom" (fun () ->
                   Span.with_ ~name:"deep" (fun () -> raise Exit))
             with Exit -> ());
            Span.with_ ~name:"sibling" (fun () -> ()));
        Span.with_ ~name:"after" (fun () -> ())
      in
      let d1 = Domain.spawn work and d2 = Domain.spawn work in
      Domain.join d1;
      Domain.join d2;
      work ());
  let rs = Span.records () in
  let tids = List.sort_uniq compare (List.map (fun r -> r.Span.tid) rs) in
  Alcotest.(check int) "three recording domains" 3 (List.length tids);
  List.iter
    (fun tid ->
      let on_tid name =
        match
          List.find_opt (fun r -> r.Span.tid = tid && r.Span.name = name) rs
        with
        | Some r -> r
        | None -> Alcotest.failf "span %S missing on tid %d" name tid
      in
      Alcotest.(check int) "deep nested under boom" 2 (on_tid "deep").Span.depth;
      Alcotest.(check int) "sibling back at depth 1" 1 (on_tid "sibling").Span.depth;
      Alcotest.(check int) "after back at depth 0" 0 (on_tid "after").Span.depth;
      Alcotest.(check (option string))
        "raising span tagged" (Some "true")
        (List.assoc_opt "raised" (on_tid "boom").Span.args))
    tids;
  Span.reset ()

let test_gc_telemetry_probe () =
  Metrics.reset ();
  let probe = Ckpt_obs.Gc_telemetry.probe () in
  (* Allocate, then force a minor collection: quick_stat's minor_words
     only advances at collection boundaries, so an uncollected burst
     would read as a zero delta. *)
  let keep = ref [] in
  for i = 1 to 50_000 do
    keep := (i, float_of_int i) :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  Gc.minor ();
  Ckpt_obs.Gc_telemetry.sample probe;
  let snap = Metrics.snapshot () in
  (match Metrics.find snap "gc.minor_words" with
  | Some (Metrics.Timing, Metrics.Sum w) ->
      Alcotest.(check bool) "allocation visible in gc.minor_words" true (w > 0.0)
  | Some _ -> Alcotest.fail "gc.minor_words has the wrong class or kind"
  | None -> Alcotest.fail "gc.minor_words not registered");
  (match Metrics.find snap "gc.heap_words" with
  | Some (Metrics.Timing, Metrics.Gauge (Some w)) ->
      Alcotest.(check bool) "heap gauge positive" true (w > 0.0)
  | _ -> Alcotest.fail "gc.heap_words gauge not set by sample");
  (* A second sample right away reports only the delta since the first —
     in particular it must not double-count history. *)
  let before =
    match Metrics.find snap "gc.minor_words" with
    | Some (_, Metrics.Sum w) -> w
    | _ -> 0.0
  in
  Ckpt_obs.Gc_telemetry.sample probe;
  (match Metrics.find (Metrics.snapshot ()) "gc.minor_words" with
  | Some (_, Metrics.Sum w) ->
      Alcotest.(check bool) "re-armed sample adds less than the first burst" true
        (w -. before < before +. 1.0)
  | _ -> Alcotest.fail "gc.minor_words disappeared");
  Metrics.reset ()

(* Golden exports on synthetic records: the Chrome shape is what
   Perfetto parses, so it is pinned byte for byte. *)
let synthetic =
  [
    {
      Span.name = "alpha";
      span_kind = Span.Complete;
      start_ns = 1_000_000L;
      dur_ns = 2_500_000L;
      tid = 0;
      depth = 0;
      args = [ ("k", {|v "q"|}) ];
    };
    {
      Span.name = "beta";
      span_kind = Span.Instant;
      start_ns = 1_500_000L;
      dur_ns = 0L;
      tid = 3;
      depth = 1;
      args = [];
    };
  ]

let test_chrome_trace_golden () =
  let expected =
    {|{"displayTimeUnit":"ms","traceEvents":[|}
    ^ {|{"name":"alpha","cat":"ckpt","ph":"X","pid":0,"tid":0,"ts":0.000,"dur":2500.000,"args":{"k":"v \"q\""}},|}
    ^ {|{"name":"beta","cat":"ckpt","ph":"i","s":"t","pid":0,"tid":3,"ts":500.000,"args":{}}]}|}
  in
  Alcotest.(check string) "chrome trace_event shape" expected (Span.to_chrome synthetic);
  Alcotest.(check string) "empty record list still parses"
    {|{"displayTimeUnit":"ms","traceEvents":[]}|}
    (Span.to_chrome [])

let test_jsonl_golden () =
  let expected =
    {|{"name":"alpha","kind":"span","start_ns":1000000,"dur_ns":2500000,"tid":0,"depth":0,"args":{"k":"v \"q\""}}|}
    ^ "\n"
    ^ {|{"name":"beta","kind":"instant","start_ns":1500000,"dur_ns":0,"tid":3,"depth":1,"args":{}}|}
    ^ "\n"
  in
  Alcotest.(check string) "json-lines shape" expected (Span.to_jsonl synthetic)

let test_dp_transition_counters_agree () =
  (* solve and solve_memoized perform the same n − x segment evaluations
     per state (the initial candidate plus the loop), so their
     dp.transitions totals must be equal — solve_memoized used to report
     max 0 (n − 1 − x) and undercount by one per state. *)
  let rng = Rng.create ~seed:909L in
  let dag = Ckpt_dag.Generate.chain rng (Ckpt_dag.Generate.uniform_costs ()) ~n:37 in
  let p = Ckpt_core.Chain_problem.of_dag ~downtime:0.2 ~lambda:0.05 dag in
  let transitions_of solver =
    Metrics.reset ();
    ignore (solver p);
    counter_value "dp.transitions"
  in
  let iterative = transitions_of Ckpt_core.Chain_dp.solve in
  let memoized = transitions_of Ckpt_core.Chain_dp.solve_memoized in
  Alcotest.(check int) "n(n+1)/2 transitions for the iterative DP" (37 * 38 / 2)
    iterative;
  Alcotest.(check int) "memoized DP reports the same total" iterative memoized;
  (* The divide and conquer does strictly fewer evaluations, and within
     the O(n log² n) bound (n·(log2 n + 1)² + n is generous already at
     n = 37 and stays so at bench sizes). *)
  let dc = transitions_of Ckpt_core.Chain_dp.solve_dc in
  let log2n = int_of_float (Float.ceil (Float.log2 37.0)) in
  Alcotest.(check bool)
    (Printf.sprintf "dc transitions (%d) below iterative (%d)" dc iterative)
    true (dc < iterative);
  Alcotest.(check bool)
    (Printf.sprintf "dc transitions (%d) within O(n log^2 n)" dc)
    true
    (dc <= (37 * (log2n + 1) * (log2n + 1)) + 37);
  Metrics.reset ()

let test_json_snapshot_parses () =
  (* Sanity of the --metrics json surface: balanced braces, both
     sections present, every registered metric quoted by name. *)
  Metrics.reset ();
  let json = Metrics.to_json (Metrics.snapshot ()) in
  let depth = ref 0 and min_depth = ref 1 in
  String.iter
    (fun c ->
      if c = '{' then incr depth
      else if c = '}' then begin
        decr depth;
        if !depth < !min_depth then min_depth := !depth
      end)
    json;
  Alcotest.(check int) "braces balance" 0 !depth;
  Alcotest.(check int) "never close below top level" 0 !min_depth;
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (contains json ("\"" ^ key ^ "\"")))
    [ "metrics"; "timings"; "mc.runs"; "sim.failures"; "dp.memo_hits";
      "dp.dc_fallbacks"; "dp.smawk_fallbacks" ]

let suite =
  [
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
    Alcotest.test_case "scoped collectors isolate until merged" `Quick
      test_scoped_collector_isolation;
    Alcotest.test_case "engine metrics bit-identical across domains" `Quick
      test_engine_metrics_identical_across_domains;
    Alcotest.test_case "derived hit-rate row" `Quick test_hit_rate_derived_row;
    Alcotest.test_case "hit rate 0/0 derives an unset gauge" `Quick
      test_hit_rate_zero_over_zero;
    Alcotest.test_case "sink flush order and idempotency" `Quick
      test_sink_flush_order_and_idempotency;
    Alcotest.test_case "span exception unwinding across domains" `Quick
      test_span_exception_unwinding_across_domains;
    Alcotest.test_case "gc telemetry probe deltas" `Quick test_gc_telemetry_probe;
    Alcotest.test_case "DP transition counters agree" `Quick
      test_dp_transition_counters_agree;
    Alcotest.test_case "span nesting and exception unwinding" `Quick
      test_span_nesting_and_exception_unwinding;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
    Alcotest.test_case "json-lines golden" `Quick test_jsonl_golden;
    Alcotest.test_case "metrics json well-formed" `Quick test_json_snapshot_parses;
  ]
