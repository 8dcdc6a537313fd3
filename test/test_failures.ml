(* Tests for the failure substrate: heap, platform, streams, traces,
   cluster logs. *)

module Min_heap = Ckpt_failures.Min_heap
module Platform = Ckpt_failures.Platform
module Failure_stream = Ckpt_failures.Failure_stream
module Trace = Ckpt_failures.Trace
module Cluster_log = Ckpt_failures.Cluster_log
module Law = Ckpt_dist.Law
module Rng = Ckpt_prng.Rng
module Welford = Ckpt_stats.Welford

let test_heap_basics () =
  let h = Min_heap.create () in
  Alcotest.(check bool) "empty" true (Min_heap.is_empty h);
  Min_heap.push h 3.0 "c";
  Min_heap.push h 1.0 "a";
  Min_heap.push h 2.0 "b";
  Alcotest.(check int) "size" 3 (Min_heap.size h);
  (match Min_heap.peek h with
  | Some (t, v) -> Alcotest.(check bool) "peek smallest" true (Float.equal t 1.0 && v = "a")
  | None -> Alcotest.fail "peek failed");
  (match Min_heap.pop h with
  | Some (1.0, "a") -> ()
  | _ -> Alcotest.fail "pop order");
  Min_heap.clear h;
  Alcotest.(check bool) "cleared" true (Min_heap.is_empty h)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops in non-decreasing order" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 100) (float_range 0.0 1000.0))
    (fun times ->
      let h = Min_heap.create () in
      List.iteri (fun i t -> Min_heap.push h t i) times;
      let rec drain acc =
        match Min_heap.pop h with None -> List.rev acc | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let test_platform () =
  let p = Platform.exponential ~downtime:1.0 ~processors:8 ~proc_rate:0.01 () in
  Alcotest.(check bool) "platform rate = p*lambda" true
    (Float.abs (Platform.platform_rate p -. 0.08) < 1e-12);
  Alcotest.(check bool) "platform MTBF" true
    (Float.abs (Platform.platform_mtbf p -. (100.0 /. 8.0)) < 1e-9);
  let weib = Platform.make ~processors:4 ~proc_law:(Law.weibull ~shape:0.7 ~scale:10.0) () in
  Alcotest.check_raises "rate undefined for weibull"
    (Invalid_argument "Platform.platform_rate: only defined for Exponential laws")
    (fun () -> ignore (Platform.platform_rate weib));
  Alcotest.check_raises "processors must be positive"
    (Invalid_argument "Platform.make: processors must be positive") (fun () ->
      ignore (Platform.make ~processors:0 ~proc_law:(Law.exponential ~rate:1.0) ()))

let test_poisson_stream_interarrival () =
  let rng = Rng.create ~seed:101L in
  let stream = Failure_stream.poisson ~rate:0.5 rng in
  let acc = Welford.create () in
  let prev = ref 0.0 in
  for _ = 1 to 100_000 do
    let t = Failure_stream.next_after stream !prev in
    Welford.add acc (t -. !prev);
    prev := t
  done;
  Alcotest.(check bool) "mean interarrival close to 1/rate" true
    (Float.abs (Welford.mean acc -. 2.0) < 0.05)

let test_stream_query_stability () =
  (* Querying with an earlier-but-still-nondecreasing time returns the
     same pending failure. *)
  let rng = Rng.create ~seed:103L in
  let stream = Failure_stream.poisson ~rate:1.0 rng in
  let f1 = Failure_stream.next_after stream 0.0 in
  let f2 = Failure_stream.next_after stream (f1 /. 2.0) in
  Alcotest.(check bool) "pending failure unchanged" true (f1 = f2);
  (* Consuming past it yields a strictly later failure. *)
  let f3 = Failure_stream.next_after stream f1 in
  Alcotest.(check bool) "next failure later" true (f3 > f1)

(* The contract a caller caching the pending failure relies on: while
   the last answer p is later than the query q, next_after returns p and
   changes no state. Two copies of each source see one seeded
   non-decreasing query sequence with exact ties (repeated queries,
   queries at the pending failure itself, co-timed events); the eager
   copy answers every query, the lazy one is asked only once q has
   reached its last answer. Every answer must agree. *)
let test_stream_query_stability_property () =
  let sources rng =
    let seed = Rng.int64 rng in
    let times =
      let t = ref 0.0 in
      Array.init 40 (fun _ ->
          if Rng.int rng 4 > 0 then t := !t +. Rng.float_range rng 0.0 3.0;
          !t)
    in
    [
      ("poisson", fun () -> Failure_stream.poisson ~rate:0.7 (Rng.create ~seed));
      ( "renewal, weibull",
        fun () ->
          Failure_stream.renewal ~law:(Law.weibull ~shape:0.7 ~scale:4.0) ~processors:3
            (Rng.create ~seed) );
      ( "renewal, co-timed clocks",
        fun () ->
          Failure_stream.renewal ~law:(Law.deterministic 1.5) ~processors:3
            (Rng.create ~seed) );
      ( "renewal, all processors",
        fun () ->
          Failure_stream.renewal ~rejuvenation:Failure_stream.All_processors
            ~law:(Law.weibull ~shape:1.5 ~scale:3.0) ~processors:4 (Rng.create ~seed) );
      ("of_times with duplicates", fun () -> Failure_stream.of_times times);
    ]
  in
  for case = 0 to 99 do
    let rng = Rng.substream (Rng.create ~seed:77L) (Printf.sprintf "queries-%d" case) in
    List.iter
      (fun (name, make) ->
        let eager = make () and lazy_ = make () in
        let pending = ref neg_infinity and q = ref 0.0 in
        for step = 1 to 200 do
          (match Rng.int rng 4 with
          | 0 -> () (* the same query again *)
          | 1 -> if Float.is_finite !pending then q := Float.max !q !pending
          | 2 -> q := !q +. Rng.float_range rng 0.0 0.5
          | _ -> q := !q +. Rng.float_range rng 0.0 5.0);
          let answer = Failure_stream.next_after eager !q in
          if not (!pending > !q) then pending := Failure_stream.next_after lazy_ !q;
          if not (answer > !q && Float.equal answer !pending) then
            Alcotest.failf "%s, case %d, query %d at %h: every query %h, lazy %h" name case
              step !q answer !pending
        done)
      (sources rng)
  done

let test_stream_monotone_guard () =
  let rng = Rng.create ~seed:105L in
  let stream = Failure_stream.poisson ~rate:1.0 rng in
  ignore (Failure_stream.next_after stream 5.0);
  Alcotest.check_raises "decreasing query rejected"
    (Invalid_argument "Failure_stream.next_after: query times must be non-decreasing")
    (fun () -> ignore (Failure_stream.next_after stream 4.0))

let test_renewal_exponential_matches_poisson_rate () =
  (* Superposition of p exponential renewal processes is Poisson(p*rate):
     compare failure counts over a horizon. *)
  let horizon = 10_000.0 in
  let count_failures stream =
    let rec loop n t =
      let f = Failure_stream.next_after stream t in
      if f > horizon then n else loop (n + 1) f
    in
    loop 0 0.0
  in
  let rng = Rng.create ~seed:107L in
  let renewal =
    Failure_stream.renewal ~law:(Law.exponential ~rate:0.01) ~processors:10
      (Rng.substream rng "renewal")
  in
  let n_renewal = count_failures renewal in
  let expected = 0.01 *. 10.0 *. horizon in
  Alcotest.(check bool)
    (Printf.sprintf "renewal count %d close to %g" n_renewal expected)
    true
    (Float.abs (float_of_int n_renewal -. expected) < 4.0 *. sqrt expected)

let test_renewal_skip_consumes () =
  let law = Law.deterministic 10.0 in
  let rng = Rng.create ~seed:109L in
  let stream = Failure_stream.renewal ~law ~processors:1 rng in
  Alcotest.(check bool) "first failure at 10" true
    (Float.equal (Failure_stream.next_after stream 0.0) 10.0);
  (* Skip past 25: failures at 10 and 20 are consumed, next is 30. *)
  Alcotest.(check bool) "skipping renews clocks" true
    (Float.equal (Failure_stream.next_after stream 25.0) 30.0)

let test_replay () =
  let stream = Failure_stream.of_times [| 1.0; 2.5; 7.0 |] in
  Alcotest.(check bool) "first" true (Float.equal (Failure_stream.next_after stream 0.0) 1.0);
  Alcotest.(check bool) "skip to 3" true (Float.equal (Failure_stream.next_after stream 3.0) 7.0);
  Alcotest.(check bool) "exhausted" true (Float.equal (Failure_stream.next_after stream 8.0) infinity);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Failure_stream.of_times: times must be sorted") (fun () ->
      ignore (Failure_stream.of_times [| 2.0; 1.0 |]))

let test_trace_generate_and_stats () =
  let rng = Rng.create ~seed:111L in
  let platform = Platform.exponential ~processors:4 ~proc_rate:0.005 () in
  let trace = Trace.generate ~platform ~horizon:50_000.0 rng in
  let expected_count = 0.02 *. 50_000.0 in
  Alcotest.(check bool) "count plausible" true
    (Float.abs (float_of_int (Trace.count trace) -. expected_count)
     < 5.0 *. sqrt expected_count);
  Alcotest.(check bool) "mtbf plausible" true
    (Float.abs (Trace.mtbf trace -. 50.0) < 5.0);
  let gaps = Trace.inter_arrival trace in
  Alcotest.(check int) "gap count" (Trace.count trace) (Array.length gaps);
  Array.iter (fun g -> Alcotest.(check bool) "gaps positive" true (g > 0.0)) gaps

let test_trace_save_load () =
  let rng = Rng.create ~seed:113L in
  let platform = Platform.exponential ~processors:2 ~proc_rate:0.01 () in
  let trace = Trace.generate ~platform ~horizon:1000.0 rng in
  let path = Filename.temp_file "ckpt_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      let loaded = Trace.load path in
      Alcotest.(check int) "count preserved" (Trace.count trace) (Trace.count loaded);
      Alcotest.(check bool) "times preserved" true
        (trace.Trace.times = loaded.Trace.times);
      Alcotest.(check bool) "horizon preserved" true
        (trace.Trace.horizon = loaded.Trace.horizon))

let test_trace_of_times_validation () =
  Alcotest.check_raises "out of horizon"
    (Invalid_argument "Trace.of_times: time out of [0, horizon]") (fun () ->
      ignore (Trace.of_times ~horizon:10.0 [| 11.0 |]));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Trace.of_times: time out of [0, horizon]") (fun () ->
      ignore (Trace.of_times ~horizon:10.0 [| 1.0; nan |]))

(* The generators collect failures until one falls past the horizon, so
   a NaN or infinite horizon must be rejected up front; so must a NaN
   heterogeneity, which would reach an assertion in the PRNG. A loaded
   log's horizon feeds Trace.of_times and is checked on load. *)
let test_generators_reject_non_finite () =
  let law = Law.exponential ~rate:0.002 in
  let platform = Platform.exponential ~processors:2 ~proc_rate:0.01 () in
  List.iter
    (fun horizon ->
      let name what = Printf.sprintf "%s, horizon %g" what horizon in
      Alcotest.check_raises (name "Cluster_log.generate")
        (Invalid_argument "Cluster_log.generate: horizon must be positive and finite")
        (fun () -> ignore (Cluster_log.generate ~law ~nodes:2 ~horizon (Rng.create ~seed:1L)));
      Alcotest.check_raises (name "Trace.generate")
        (Invalid_argument "Trace.generate: horizon must be positive and finite") (fun () ->
          ignore (Trace.generate ~platform ~horizon (Rng.create ~seed:1L)));
      Alcotest.check_raises (name "Trace.of_times")
        (Invalid_argument "Trace.of_times: horizon must be positive and finite") (fun () ->
          ignore (Trace.of_times ~horizon [||])))
    [ 0.0; -1.0; nan; infinity ];
  List.iter
    (fun heterogeneity ->
      Alcotest.check_raises
        (Printf.sprintf "heterogeneity %g" heterogeneity)
        (Invalid_argument "Cluster_log.generate: heterogeneity must lie in [0,1)") (fun () ->
          ignore
            (Cluster_log.generate ~heterogeneity ~law ~nodes:2 ~horizon:100.0
               (Rng.create ~seed:1L))))
    [ nan; -0.1; 1.0; infinity ];
  let path = Filename.temp_file "ckpt_log" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "# ckpt-workflows cluster log v1\nhorizon nan\ndescription x\nnodes 0\n");
      Alcotest.check_raises "loaded NaN horizon"
        (Failure (path ^ ":2: horizon must be positive and finite")) (fun () ->
          ignore (Cluster_log.load path)))

let test_cluster_log () =
  let rng = Rng.create ~seed:115L in
  let law = Law.weibull_of_mean ~shape:0.7 ~mean:500.0 in
  let log = Cluster_log.generate ~heterogeneity:0.3 ~law ~nodes:20 ~horizon:20_000.0 rng in
  Alcotest.(check int) "node count" 20 (Cluster_log.node_count log);
  let merged = Cluster_log.merged_times log in
  Alcotest.(check int) "merged count = total failures" (Cluster_log.failure_count log)
    (Array.length merged);
  Array.iteri
    (fun i t -> if i > 0 then Alcotest.(check bool) "merged sorted" true (t >= merged.(i - 1)))
    merged;
  let trace = Cluster_log.to_trace log in
  Alcotest.(check int) "trace count" (Array.length merged) (Trace.count trace);
  let mtbfs = Cluster_log.node_mtbf log in
  Alcotest.(check int) "one mtbf per node" 20 (Array.length mtbfs)

let test_cluster_log_save_load () =
  let rng = Rng.create ~seed:117L in
  let law = Law.exponential ~rate:0.002 in
  let log = Cluster_log.generate ~law ~nodes:5 ~horizon:10_000.0 rng in
  let path = Filename.temp_file "ckpt_log" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cluster_log.save log path;
      let loaded = Cluster_log.load path in
      Alcotest.(check int) "nodes preserved" (Cluster_log.node_count log)
        (Cluster_log.node_count loaded);
      Alcotest.(check int) "failures preserved" (Cluster_log.failure_count log)
        (Cluster_log.failure_count loaded);
      Alcotest.(check bool) "merged times equal" true
        (Cluster_log.merged_times log = Cluster_log.merged_times loaded))

(* Malformed failure files: each load must raise Failure "path:line:
   message", never an exception of the parsers underneath or of
   Trace.of_times, and must allocate by the lines the file holds, not
   by the counts it claims. *)
let cluster_header = "# ckpt-workflows cluster log v1\nhorizon 100\ndescription x\n"
let trace_header = "# ckpt-workflows failure trace v1\nhorizon 100\nprocessors 2\nlaw x\nseed 7\n"

let log path = ignore (Cluster_log.load path)
let trace path = ignore (Trace.load path)

let malformed_cases =
  [
    ("log: negative node count", log, cluster_header ^ "nodes -3\n",
      4, {|nodes must be a non-negative integer, got "-3"|});
    ("log: NaN time", log, cluster_header ^ "nodes 1\nnode 0 2 1.5 nan\n",
      5, {|failure time "nan" is not a number in [0, horizon]|});
    ("log: non-numeric time", log,
      cluster_header ^ "nodes 1\nnode 0 1 abc\n",
      5, {|failure time "abc" is not a number in [0, horizon]|});
    ("log: time past the horizon", log,
      cluster_header ^ "nodes 1\nnode 0 1 250\n",
      5, {|failure time "250" is not a number in [0, horizon]|});
    ("log: infinite time", log, cluster_header ^ "nodes 1\nnode 0 1 inf\n",
      5, {|failure time "inf" is not a number in [0, horizon]|});
    ("log: unsorted times", log,
      cluster_header ^ "nodes 2\nnode 0 1 3\nnode 1 2 9 4\n",
      6, "failure times are not sorted");
    ("log: negative failure count", log,
      cluster_header ^ "nodes 1\nnode 0 -1\n",
      5, {|failure count must be a non-negative integer, got "-1"|});
    ("log: truncated", log, cluster_header ^ "nodes 3\nnode 0 0\n",
      5, "truncated log: expected 3 nodes, got 1");
    ("trace: negative count", trace, trace_header ^ "count -1\n",
      6, {|count must be a non-negative integer, got "-1"|});
    ("trace: NaN time", trace, trace_header ^ "count 2\n1\nnan\n",
      8, {|failure time "nan" is not a number in [0, horizon]|});
    ("trace: non-numeric seed", trace,
      "# ckpt-workflows failure trace v1\nhorizon 100\nprocessors 2\nlaw x\nseed s\n",
      5, "seed must be an integer");
    ("trace: unsorted times", trace, trace_header ^ "count 2\n5\n4\n",
      8, "failure times are not sorted");
  ]

let with_text content f =
  let path = Filename.temp_file "ckpt_malformed" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      f path)

let test_malformed (_, load, content, line, message) () =
  with_text content (fun path ->
      Alcotest.check_raises "Failure at path:line"
        (Failure (Printf.sprintf "%s:%d: %s" path line message))
        (fun () -> load path))

let test_oversized_counts () =
  (* One line of data under a header claiming 10^6 entries: the load
     reports the truncation having allocated words for what it read,
     where sizing an array from the header costs 10^6 words. *)
  List.iter
    (fun (load, content, line, message) ->
      with_text content (fun path ->
          let before = Gc.allocated_bytes () in
          Alcotest.check_raises "truncation reported"
            (Failure (Printf.sprintf "%s:%d: %s" path line message))
            (fun () -> load path);
          let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
          Alcotest.(check bool)
            (Printf.sprintf "%.0f words allocated (bound 10^5)" words)
            true (words < 1e5)))
    [
      (log, cluster_header ^ "nodes 1000000\nnode 0 1 2.5\n", 5,
        "truncated log: expected 1000000 nodes, got 1");
      (trace, trace_header ^ "count 1000000\n2.5\n", 7,
        "truncated trace: expected 1000000 times, got 1");
    ]

let test_rejuvenation_modes_exponential_equivalent () =
  (* For Exponential laws, Failed_only and All_processors rejuvenation
     give the same failure-count distribution. *)
  let horizon = 5_000.0 in
  let count rejuvenation seed =
    let rng = Rng.create ~seed in
    let stream =
      Failure_stream.renewal ~rejuvenation ~law:(Law.exponential ~rate:0.01) ~processors:5
        rng
    in
    let rec loop n t =
      let f = Failure_stream.next_after stream t in
      if f > horizon then n else loop (n + 1) f
    in
    loop 0 0.0
  in
  let acc_f = Welford.create () and acc_a = Welford.create () in
  for s = 1 to 60 do
    Welford.add acc_f (float_of_int (count Failure_stream.Failed_only (Int64.of_int s)));
    Welford.add acc_a
      (float_of_int (count Failure_stream.All_processors (Int64.of_int (s + 1000))))
  done;
  let rel =
    Float.abs (Welford.mean acc_f -. Welford.mean acc_a) /. Welford.mean acc_f
  in
  Alcotest.(check bool) "failure counts statistically equal" true (rel < 0.05)

let test_cascading_closed_form () =
  let module Cascading = Ckpt_failures.Cascading in
  (* Analytic: (e^(lambda D) - 1)/lambda. *)
  let lambda = 0.02 and downtime = 10.0 in
  let analytic = Cascading.expected_effective ~lambda ~downtime in
  Alcotest.(check bool) "formula value" true
    (Float.abs (analytic -. (Float.expm1 0.2 /. 0.02)) < 1e-9);
  Alcotest.(check bool) "exceeds the constant-D model" true
    (Cascading.expected_excess ~lambda ~downtime > 0.0);
  (* lambda D -> 0: constant-D model accurate (the paper's remark). *)
  let tiny = Cascading.expected_excess ~lambda:1e-7 ~downtime:10.0 in
  Alcotest.(check bool) "tiny excess for small lambda D" true (tiny < 1e-4);
  (* Simulation agrees. *)
  let rng = Rng.create ~seed:4321L in
  let acc = Cascading.simulate ~lambda:0.05 ~downtime:10.0 ~runs:50_000 rng in
  let analytic = Cascading.expected_effective ~lambda:0.05 ~downtime:10.0 in
  let lo, hi = Welford.confidence_interval acc ~level:0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.4f in CI [%.4f, %.4f]" analytic lo hi)
    true
    (lo <= analytic && analytic <= hi)

let test_cascading_failure_count () =
  let module Cascading = Ckpt_failures.Cascading in
  Alcotest.(check bool) "expected extra failures = e^(lD) - 1" true
    (Float.abs (Cascading.expected_cascade_failures ~lambda:0.1 ~downtime:5.0
                -. Float.expm1 0.5)
     < 1e-12)

module Injector = Ckpt_failures.Injector

let test_heap_rejects_nan () =
  let h = Min_heap.create () in
  Alcotest.check_raises "NaN key rejected" (Invalid_argument "Min_heap.push: NaN key")
    (fun () -> Min_heap.push h Float.nan "x");
  Alcotest.(check bool) "heap untouched after rejection" true (Min_heap.is_empty h)

(* Model-based property test: the heap against a sorted association
   list, under arbitrary push/pop/clear interleavings (pop keys must
   come out in the model's order; sizes must track exactly). *)
let qcheck_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list model (push/pop/clear)" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 120) (pair (int_bound 9) (float_range 0.0 1000.0)))
    (fun ops ->
      let h = Min_heap.create () in
      let model = ref [] in
      let fresh = ref 0 in
      List.for_all
        (fun (kind, key) ->
          if kind <= 5 then begin
            incr fresh;
            Min_heap.push h key !fresh;
            model :=
              List.merge
                (fun (a, _) (b, _) -> Float.compare a b)
                [ (key, !fresh) ] !model;
            Min_heap.size h = List.length !model
          end
          else if kind <= 8 then
            match (Min_heap.pop h, !model) with
            | None, [] -> true
            | Some (k, _), (mk, _) :: rest ->
                model := rest;
                Float.equal k mk
            | Some _, [] | None, _ :: _ -> false
          else begin
            Min_heap.clear h;
            model := [];
            Min_heap.is_empty h && Min_heap.pop h = None
          end)
        ops)

let test_of_times_tie_coalescing () =
  (* Three processors down at exactly t=5, two more at t=9: each burst
     is delivered as one platform failure (see the simultaneity
     semantics in Failure_stream's interface). *)
  let s = Failure_stream.of_times [| 5.0; 5.0; 5.0; 9.0; 9.0 |] in
  Alcotest.(check (float 0.0)) "burst delivered once" 5.0 (Failure_stream.next_after s 0.0);
  Alcotest.(check (float 0.0)) "co-timed duplicates consumed" 9.0
    (Failure_stream.next_after s 5.0);
  Alcotest.(check (float 0.0)) "exhausted" infinity (Failure_stream.next_after s 9.0)

let test_renewal_tie_coalescing () =
  (* A deterministic law puts every processor clock at the same instants:
     the renewal source must coalesce each co-timed burst too. *)
  let rng = Rng.create ~seed:11L in
  let s = Failure_stream.renewal ~law:(Law.deterministic 5.0) ~processors:4 rng in
  Alcotest.(check (float 0.0)) "first burst" 5.0 (Failure_stream.next_after s 0.0);
  Alcotest.(check (float 0.0)) "all clocks renewed at the tie" 10.0
    (Failure_stream.next_after s 5.0);
  Alcotest.(check (float 0.0)) "and again" 15.0 (Failure_stream.next_after s 10.0)

let test_poisson_tie_strictly_later () =
  (* Querying at exactly a delivered failure time always yields a
     strictly later failure — the contract that makes zero-downtime
     engine loops terminate. *)
  let rng = Rng.create ~seed:17L in
  let s = Failure_stream.poisson ~rate:2.0 rng in
  let t = ref 0.0 in
  for _ = 1 to 1000 do
    let f = Failure_stream.next_after s !t in
    if not (f > !t) then Alcotest.failf "failure %g not strictly after query %g" f !t;
    t := f
  done

let test_poisson_rate_checked () =
  (* An infinite rate used to be accepted; its stream answered every
     query with the query time itself. *)
  List.iter
    (fun rate ->
      Alcotest.check_raises (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Failure_stream.poisson: rate must be positive and finite")
        (fun () -> ignore (Failure_stream.poisson ~rate (Rng.create ~seed:1L))))
    [ Float.infinity; Float.nan; 0.0; -1.0; Float.neg_infinity ]

let test_injector_masked_subsequence () =
  (* Delivered failures are a strictly increasing subsequence of the
     base trace, and repeated queries are stable. *)
  let base_times = Array.init 50 (fun i -> float_of_int (i + 1)) in
  let rng = Rng.create ~seed:23L in
  let inj =
    Injector.masked ~survive_prob:0.5 rng
      (Injector.of_stream (Failure_stream.of_times base_times))
  in
  let rec drain t acc =
    let f = Injector.next inj t in
    let f' = Injector.next inj t in
    if not (Float.equal f f') then Alcotest.failf "query at %g not stable" t;
    if Float.equal f infinity then List.rev acc
    else begin
      if not (f > t) then Alcotest.failf "masked failure %g not after %g" f t;
      drain f (f :: acc)
    end
  in
  let delivered = drain 0.0 [] in
  Alcotest.(check bool) "some failures delivered" true (List.length delivered > 0);
  Alcotest.(check bool) "some failures masked" true
    (List.length delivered < Array.length base_times);
  List.iter
    (fun f ->
      if not (Array.exists (fun b -> Float.equal b f) base_times) then
        Alcotest.failf "delivered %g is not a base failure" f)
    delivered;
  (* survive_prob = 0 masks nothing: the injector is the base stream. *)
  let plain =
    Injector.masked ~survive_prob:0.0 (Rng.create ~seed:1L)
      (Injector.of_stream (Failure_stream.of_times [| 2.0; 4.0 |]))
  in
  Alcotest.(check (float 0.0)) "nothing masked" 2.0 (Injector.next plain 0.0);
  Alcotest.(check (float 0.0)) "nothing masked (2)" 4.0 (Injector.next plain 2.0);
  Alcotest.check_raises "survive_prob = 1 rejected"
    (Invalid_argument "Injector.masked: survive_prob must be in [0, 1)") (fun () ->
      ignore (Injector.masked ~survive_prob:1.0 (Rng.create ~seed:1L) Injector.never))

let test_injector_aftershocks () =
  (* probability 0: no cascades, identical to the base trace. *)
  let rng = Rng.create ~seed:29L in
  let inj =
    Injector.aftershocks ~probability:0.0 ~rate:1.0 ~window:10.0 rng
      (Injector.of_stream (Failure_stream.of_times [| 3.0; 8.0 |]))
  in
  Alcotest.(check (float 0.0)) "base passthrough" 3.0 (Injector.next inj 0.0);
  Alcotest.(check (float 0.0)) "base passthrough (2)" 8.0 (Injector.next inj 3.0);
  Alcotest.(check (float 0.0)) "no aftershocks" infinity (Injector.next inj 8.0);
  (* High probability: the cascade stays finite (sub-critical) and every
     delivered failure is strictly later than its query. *)
  let rng = Rng.create ~seed:31L in
  let inj =
    Injector.aftershocks ~probability:0.8 ~rate:2.0 ~window:25.0 rng
      (Injector.of_stream (Failure_stream.of_times [| 10.0 |]))
  in
  let rec drain t n =
    if n > 10_000 then Alcotest.fail "aftershock cascade did not terminate";
    let f = Injector.next inj t in
    if Float.equal f infinity then n
    else begin
      if not (f > t) then Alcotest.failf "aftershock %g not after %g" f t;
      drain f (n + 1)
    end
  in
  let count = drain 0.0 0 in
  Alcotest.(check bool) "base failure delivered" true (count >= 1)

let test_injector_phase_modulated () =
  let cell = ref Injector.Work in
  let rng = Rng.create ~seed:37L in
  let inj =
    Injector.exp_phase_modulated ~base_rate:1.0
      ~multiplier:(function
        | Injector.Work -> 1.0
        | Injector.Checkpoint -> 0.0
        | Injector.Recovery -> 4.0
        | Injector.Downtime -> 0.0)
      ~phase:(fun () -> !cell)
      rng
  in
  let f1 = Injector.next inj 0.0 in
  Alcotest.(check bool) "work-phase failure finite and later" true
    (Float.is_finite f1 && f1 > 0.0);
  Alcotest.(check (float 0.0)) "same-phase query stable" f1 (Injector.next inj 0.0);
  cell := Injector.Checkpoint;
  Alcotest.(check (float 0.0)) "zero multiplier = failure-free phase" infinity
    (Injector.next inj 0.0);
  cell := Injector.Work;
  let f2 = Injector.next inj 0.5 in
  Alcotest.(check bool) "redrawn after phase change" true (Float.is_finite f2 && f2 > 0.5)

let test_injector_nonhomogeneous () =
  (* Same seed, same query sequence: bit-identical arrivals. *)
  let arrivals seed =
    let rng = Rng.create ~seed in
    let inj =
      Injector.nonhomogeneous ~rate:(fun t -> Float.min 0.5 (0.05 *. t)) ~rate_max:0.5 rng
    in
    let rec go t n acc =
      if n = 0 then List.rev acc
      else
        let f = Injector.next inj t in
        if not (f > t) then Alcotest.failf "NHPP arrival %g not after %g" f t;
        go f (n - 1) (f :: acc)
    in
    go 0.0 20 []
  in
  Alcotest.(check bool) "reproducible" true (arrivals 41L = arrivals 41L);
  Alcotest.(check bool) "seed-sensitive" true (arrivals 41L <> arrivals 43L);
  (* A vanishing rate cannot spin the thinning loop: the horizon caps it. *)
  let inj =
    Injector.nonhomogeneous ~horizon:100.0
      ~rate:(fun _ -> 0.0)
      ~rate_max:1.0 (Rng.create ~seed:47L)
  in
  Alcotest.(check (float 0.0)) "horizon terminates zero-rate thinning" infinity
    (Injector.next inj 0.0);
  (* A rate exceeding the envelope is a hard error, not silent bias. *)
  let inj =
    Injector.nonhomogeneous ~rate:(fun _ -> 2.0) ~rate_max:1.0 (Rng.create ~seed:53L)
  in
  Alcotest.check_raises "rate above envelope rejected"
    (Invalid_argument "Injector.nonhomogeneous: rate must stay within [0, rate_max]")
    (fun () -> ignore (Injector.next inj 0.0))

let suite =
  [
    Alcotest.test_case "min-heap basics" `Quick test_heap_basics;
    Alcotest.test_case "min-heap rejects NaN" `Quick test_heap_rejects_nan;
    QCheck_alcotest.to_alcotest qcheck_heap_model;
    Alcotest.test_case "of_times tie coalescing" `Quick test_of_times_tie_coalescing;
    Alcotest.test_case "renewal tie coalescing" `Quick test_renewal_tie_coalescing;
    Alcotest.test_case "poisson strictly later at ties" `Quick
      test_poisson_tie_strictly_later;
    Alcotest.test_case "poisson rate must be finite" `Quick test_poisson_rate_checked;
    Alcotest.test_case "injector: masked" `Quick test_injector_masked_subsequence;
    Alcotest.test_case "injector: aftershocks" `Quick test_injector_aftershocks;
    Alcotest.test_case "injector: phase-modulated" `Quick test_injector_phase_modulated;
    Alcotest.test_case "injector: non-homogeneous" `Quick test_injector_nonhomogeneous;
    Alcotest.test_case "cascading downtime closed form" `Slow test_cascading_closed_form;
    Alcotest.test_case "cascading failure count" `Quick test_cascading_failure_count;
    QCheck_alcotest.to_alcotest qcheck_heap_sorted;
    Alcotest.test_case "platform model" `Quick test_platform;
    Alcotest.test_case "poisson inter-arrivals" `Slow test_poisson_stream_interarrival;
    Alcotest.test_case "stream query stability" `Quick test_stream_query_stability;
    Alcotest.test_case "query stability: skipped queries are exact" `Quick
      test_stream_query_stability_property;
    Alcotest.test_case "stream monotone guard" `Quick test_stream_monotone_guard;
    Alcotest.test_case "renewal superposition rate" `Slow
      test_renewal_exponential_matches_poisson_rate;
    Alcotest.test_case "renewal skip consumes clocks" `Quick test_renewal_skip_consumes;
    Alcotest.test_case "trace replay" `Quick test_replay;
    Alcotest.test_case "trace generation stats" `Slow test_trace_generate_and_stats;
    Alcotest.test_case "trace save/load" `Quick test_trace_save_load;
    Alcotest.test_case "trace validation" `Quick test_trace_of_times_validation;
    Alcotest.test_case "generators reject non-finite input" `Quick
      test_generators_reject_non_finite;
    Alcotest.test_case "cluster log" `Quick test_cluster_log;
    Alcotest.test_case "cluster log save/load" `Quick test_cluster_log_save_load;
    Alcotest.test_case "oversized counts allocate by the lines read" `Quick
      test_oversized_counts;
    Alcotest.test_case "rejuvenation modes equal for exponential" `Slow
      test_rejuvenation_modes_exponential_equivalent;
  ]
  @ List.map
      (fun ((name, _, _, _, _) as case) ->
        Alcotest.test_case ("malformed " ^ name) `Quick (test_malformed case))
      malformed_cases
