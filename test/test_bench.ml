(* The benchmark-results subsystem (lib/benchmarks): JSON schema
   round-trips, the noise-aware comparator's verdicts on synthetic
   baselines, bench.toml accept/reject (unknown keys are hard errors),
   and the typed required-keys validation that replaced CI's grep. *)

module Json = Ckpt_json.Json
module Schema = Ckpt_bench.Schema
module Bench_config = Ckpt_bench.Bench_config
module Compare = Ckpt_bench.Compare

(* --- JSON reader/writer --------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline\twith \\ and unicode \xc3\xa9");
        ("n", Json.Number 3.141592653589793);
        ("i", Json.Number 42.0);
        ("neg", Json.Number (-1.5e-9));
        ("t", Json.Bool true);
        ("f", Json.Bool false);
        ("z", Json.Null);
        ("l", Json.List [ Json.Number 1.0; Json.String "x"; Json.Obj [] ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  let reparsed = Json.parse (Json.to_string v) in
  Alcotest.(check bool) "round-trips structurally" true (Json.equal v reparsed)

let test_json_number_precision () =
  List.iter
    (fun x ->
      let reparsed = Json.parse (Json.to_string (Json.Number x)) in
      match Json.to_float reparsed with
      | Some y -> Alcotest.(check bool) (Printf.sprintf "%h exact" x) true (Float.equal x y)
      | None -> Alcotest.fail "number did not parse back as a number")
    [ 0.1; 1.0 /. 3.0; 1.0e-300; 123456789.123456789; 5.8526572849543044e-08 ]

let test_json_rejects () =
  let rejects label s =
    match Json.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected a parse error")
  in
  let obj keys = "{" ^ String.concat "," (List.map (Printf.sprintf "\"%s\":0") keys) ^ "}" in
  let keys n = List.init n (Printf.sprintf "k%d") in
  rejects "trailing garbage" "{} x";
  rejects "duplicate key at position 2" "{\"a\":1,\"a\":2}";
  (* past the keys a scan checks, and deep into the table that follows *)
  rejects "duplicate key at position 12" (obj (keys 11 @ [ "k3" ]));
  rejects "duplicate key at position 5001" (obj (keys 5000 @ [ "k4321" ]));
  rejects "unterminated string" "\"abc";
  rejects "unterminated string after an escape" "[\"ab\\ncd";
  rejects "bare word" "bench";
  rejects "bad escape" "\"\\q\"";
  rejects "surrogate escape" "\"\\ud834\"";
  rejects "leading zero junk" "01x";
  rejects "non-finite" "1e999";
  rejects "raw control char" "\"a\x01b\"";
  List.iter (fun n -> rejects ("number " ^ n) n) [ "-"; "1."; "1e"; "1e+" ];
  Alcotest.(check (result unit string))
    "message with its position"
    (Error "line 1, column 11: duplicate object key \"a\"")
    (Result.map ignore (Json.parse_result "{\"a\":1,\"a\":2}"))

let nested_arrays depth = String.make depth '[' ^ String.make depth ']'

let rec nesting = function
  | Json.List items -> 1 + List.fold_left (fun m v -> max m (nesting v)) 0 items
  | Json.Obj fields -> 1 + List.fold_left (fun m (_, v) -> max m (nesting v)) 0 fields
  | _ -> 0

let test_json_depth_bound () =
  (* A legal 1 MiB ckpt-serve frame: 524,280 nested arrays, which the
     unbounded parser took about a third of a second to read. *)
  let deep = nested_arrays 524_280 in
  let fastest = ref infinity and outcome = ref (Ok Json.Null) in
  for _ = 1 to 3 do
    let t0 = Ckpt_obs.Clock.now_ns () in
    outcome := Json.parse_result deep;
    fastest := Float.min !fastest (Ckpt_obs.Clock.elapsed_s t0)
  done;
  let too_deep column =
    Error
      (Printf.sprintf "line 1, column %d: nesting deeper than %d arrays and objects" column
         Json.max_depth)
  in
  Alcotest.(check (result unit string))
    "rejected at the first bracket past the bound"
    (too_deep (Json.max_depth + 1))
    (Result.map ignore !outcome);
  Alcotest.(check bool) (Printf.sprintf "rejected in %.6f s" !fastest) true (!fastest < 0.01);
  (* Exactly at the bound, arrays and objects alike; one more level is
     rejected at its bracket, after [width] bytes per level. *)
  let objects depth =
    String.concat "" (List.init (depth - 1) (fun _ -> "{\"k\":"))
    ^ "[]" ^ String.make (depth - 1) '}'
  in
  List.iter
    (fun (shape, doc, width) ->
      Alcotest.(check int) (shape ^ " at the bound") Json.max_depth
        (nesting (Json.parse (doc Json.max_depth)));
      Alcotest.(check (result unit string))
        (shape ^ " one level deeper")
        (too_deep ((width * Json.max_depth) + 1))
        (Result.map ignore (Json.parse_result (doc (Json.max_depth + 1)))))
    [ ("arrays", nested_arrays, 1); ("objects", objects, 5) ]

let test_escape_decoding () =
  List.iter
    (fun (text, decoded) ->
      match Json.parse text with
      | Json.String s -> Alcotest.(check string) text decoded s
      | _ -> Alcotest.fail "expected a string")
    [ ("\"\\u00e9\\n\\t\"", "\xc3\xa9\n\t"); ("\"ab\\ncd\"", "ab\ncd") ]

(* Random trees: strings mix plain bytes with every escaped class
   (quote, backslash, \n \t \r, other control bytes) and non-ASCII
   bytes; objects carry up to 20 distinct keys, past the size at which
   the duplicate-key check switches from a scan to a table. *)
let json_gen =
  let open QCheck.Gen in
  let char_gen =
    frequency
      [
        (4, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\x1f'; '/'; ' ' ]);
        (1, char_range '\x80' '\xff');
      ]
  in
  let str = string_size ~gen:char_gen (int_range 0 10) in
  let number =
    oneof
      [
        map float_of_int (int_range (-1000) 1000);
        float_range (-1e6) 1e6;
        map (fun x -> if Float.is_finite x then x else 0.0) float;
      ]
  in
  let distinct fields =
    List.rev
      (List.fold_left
         (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
         [] fields)
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Number x) number;
        map (fun s -> Json.String s) str;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> Json.List l) (list_size (int_range 0 5) (self (depth - 1))));
            ( 1,
              map
                (fun fields -> Json.Obj (distinct fields))
                (list_size (int_range 0 20) (pair str (self (depth - 1)))) );
          ])
    3

let qcheck_json_round_trip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v" ~count:300
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.equal v (Json.parse (Json.to_string v)))

(* --- schema --------------------------------------------------------- *)

let case ?(tags = [ "kernel" ]) ?(samples = 10) ?(stddev = 0.0) name mean =
  {
    Schema.name;
    tags;
    unit_ = "s/call";
    samples;
    mean;
    stddev;
    ci99 = (mean -. stddev, mean +. stddev);
    wall_s = mean *. float_of_int samples;
  }

let meta = { Schema.git_sha = "testsha"; ocaml_version = "5.1.1"; domains = 2; mode = Schema.Quick }

let sample_metrics =
  Json.Obj
    [
      ("metrics", Json.Obj [ ("mc.runs", Json.Number 40000.0); ("sim.failures", Json.Number 7.0) ]);
      ("timings", Json.Obj [ ("pool.wall_s", Json.Number 0.12) ]);
    ]

let sample_run cases = { Schema.meta; cases; metrics = sample_metrics }

let test_schema_round_trip () =
  let run =
    sample_run [ case "alpha" 1.5e-6; case ~stddev:2e-8 ~samples:64 "beta" 3.25e-3 ]
  in
  let json_text = Json.to_string (Schema.to_json run) in
  (match Schema.of_json (Json.parse json_text) with
  | Ok reparsed ->
      Alcotest.(check bool) "serialize -> parse -> equal" true (Schema.equal_run run reparsed)
  | Error msg -> Alcotest.fail msg);
  (* And through the file layer. *)
  let path = Filename.temp_file "ckpt_bench_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Schema.write ~path run;
      match Schema.read ~path with
      | Ok reparsed ->
          Alcotest.(check bool) "write -> read -> equal" true (Schema.equal_run run reparsed)
      | Error msg -> Alcotest.fail msg)

let test_schema_rejects () =
  let rejects label json =
    match Schema.of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (label ^ ": expected a schema error")
  in
  let valid = Schema.to_json (sample_run [ case "alpha" 1.0 ]) in
  rejects "newer schema version"
    (match valid with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if String.equal k "schema_version" then (k, Json.Number 999.0) else (k, v))
             fields)
    | _ -> assert false);
  rejects "missing meta"
    (match valid with
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "meta") fields)
    | _ -> assert false);
  rejects "ill-typed mean" (Json.parse
    {|{"schema_version":1,
       "meta":{"git_sha":"x","ocaml_version":"5.1.1","domains":1,"mode":"quick"},
       "cases":[{"name":"a","tags":[],"unit":"s","samples":1,"mean":"fast",
                 "stddev":0,"ci99_lo":0,"ci99_hi":0,"wall_s":0}],
       "metrics":{}}|});
  rejects "bad mode" (Json.parse
    {|{"schema_version":1,
       "meta":{"git_sha":"x","ocaml_version":"5.1.1","domains":1,"mode":"fastest"},
       "cases":[],"metrics":{}}|})

(* The latent CI bug this subsystem fixes: a metric-key name inside a
   string VALUE satisfied `grep -q "\"key\""`; the typed check only
   accepts actual field names of the metrics/timings objects. *)
let test_required_keys_typed () =
  let run = sample_run [ case "alpha" 1.0 ] in
  Alcotest.(check bool) "field name found" true (Schema.has_metric run "mc.runs");
  Alcotest.(check bool) "timing field found" true (Schema.has_metric run "pool.wall_s");
  Alcotest.(check bool) "absent key" false (Schema.has_metric run "dp.memo_hits");
  let smuggled =
    { run with
      Schema.metrics =
        Json.Obj
          [
            ( "metrics",
              Json.Obj [ ("note", Json.String "dp.memo_hits lives in a value") ] );
            ("timings", Json.Obj []);
          ] }
  in
  Alcotest.(check bool) "key inside a string value does not count" false
    (Schema.has_metric smuggled "dp.memo_hits")

(* --- comparator ----------------------------------------------------- *)

let verdict_of report name =
  match List.find_opt (fun c -> String.equal c.Compare.name name) report.Compare.cases with
  | Some c -> c.Compare.verdict
  | None -> Alcotest.fail (Printf.sprintf "no report entry for case %s" name)

let check_verdict label expected got =
  Alcotest.(check string) label
    (Compare.verdict_to_string expected)
    (Compare.verdict_to_string got)

let test_comparator_verdicts () =
  (* Tight cases: se = 0, so the 10% relative band decides. *)
  let baseline =
    sample_run
      [
        case "steady" 100.0; case "faster" 100.0; case "slower" 100.0;
        case ~stddev:20.0 ~samples:4 "noisy" 100.0; case "vanished" 1.0;
      ]
  in
  let candidate =
    sample_run
      [
        case "steady" 109.0;  (* +9% < 10% *)
        case "faster" 85.0;   (* -15% *)
        case "slower" 111.0;  (* +11% > 10% *)
        (* +25%, but 3 * sqrt(2 * (20/sqrt 4)^2) = 42.4 > 25: within noise. *)
        case ~stddev:20.0 ~samples:4 "noisy" 125.0;
        case "appeared" 2.0;
      ]
  in
  let report = Compare.run ~baseline candidate in
  check_verdict "within 10% band" Compare.Within_noise (verdict_of report "steady");
  check_verdict "improvement" Compare.Improvement (verdict_of report "faster");
  check_verdict "regression" Compare.Regression (verdict_of report "slower");
  check_verdict "noise-aware: wide stddev widens the band" Compare.Within_noise
    (verdict_of report "noisy");
  check_verdict "missing case" Compare.Missing (verdict_of report "vanished");
  check_verdict "new case" Compare.New (verdict_of report "appeared");
  Alcotest.(check bool) "missing fails the gate" false (Compare.ok report);
  Alcotest.(check int) "one regression" 1 report.Compare.regressions;
  Alcotest.(check int) "one missing" 1 report.Compare.missing;
  (* Without the vanished case the regression still fails the gate. *)
  let baseline' =
    sample_run (List.filter (fun c -> c.Schema.name <> "vanished") baseline.Schema.cases)
  in
  let report' = Compare.run ~baseline:baseline' candidate in
  Alcotest.(check bool) "regression fails the gate" false (Compare.ok report');
  (* All-clear passes. *)
  let report'' =
    Compare.run ~baseline:baseline' { candidate with Schema.cases = baseline'.Schema.cases }
  in
  Alcotest.(check bool) "identical runs pass" true (Compare.ok report'')

let test_comparator_overrides () =
  let baseline = sample_run [ case "tuned" 100.0; case "flaky" 100.0 ] in
  let candidate = sample_run [ case "tuned" 145.0; case "flaky" 400.0 ] in
  (* Defaults: both regress. *)
  let strict = Compare.run ~baseline candidate in
  Alcotest.(check int) "strict finds two regressions" 2 strict.Compare.regressions;
  (* bench.toml overrides: a generous per-case band and a skip. *)
  let config =
    Bench_config.parse_string
      "[bench]\nmax_regression = 0.10\n\n[case.tuned]\nmax_regression = 0.5\n\n\
       [case.flaky]\nskip = true\n"
  in
  let relaxed = Compare.run ~config ~baseline candidate in
  check_verdict "override widens the band" Compare.Within_noise
    (verdict_of relaxed "tuned");
  check_verdict "skip excludes the case" Compare.Skipped (verdict_of relaxed "flaky");
  Alcotest.(check bool) "relaxed gate passes" true (Compare.ok relaxed)

(* --- bench.toml ----------------------------------------------------- *)

let test_config_accepts () =
  let config =
    Bench_config.parse_string
      "# comment\n[bench]\nmax_regression = 0.25\nsigma = 4\nrequired_metrics = [\n\
      \  \"mc.runs\", # inline comment\n  \"sim.failures\",\n]\n\n\
       [case.chain-dp-800]\nmax_regression = 0.5\nskip = false\n"
  in
  Alcotest.(check (float 1e-9)) "max_regression" 0.25 config.Bench_config.max_regression;
  Alcotest.(check (float 1e-9)) "sigma" 4.0 config.Bench_config.sigma;
  Alcotest.(check (list string)) "required_metrics" [ "mc.runs"; "sim.failures" ]
    config.Bench_config.required_metrics;
  let max_regression, sigma = Bench_config.effective config ~case:"chain-dp-800" in
  Alcotest.(check (float 1e-9)) "case override" 0.5 max_regression;
  Alcotest.(check (float 1e-9)) "case inherits sigma" 4.0 sigma;
  let max_regression', _ = Bench_config.effective config ~case:"other" in
  Alcotest.(check (float 1e-9)) "unlisted case uses default" 0.25 max_regression';
  Alcotest.(check bool) "skip = false" false
    (Bench_config.skipped config ~case:"chain-dp-800")

let test_config_rejects () =
  let rejects label contents =
    match Bench_config.parse_string contents with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (label ^ ": expected a parse failure")
  in
  rejects "unknown key in [bench]" "[bench]\nmax_regresion = 0.1\n";
  rejects "unknown key in [case.x]" "[case.x]\nthreshold = 0.1\n";
  rejects "unknown section" "[bnech]\nmax_regression = 0.1\n";
  rejects "string where number expected" "[bench]\nsigma = \"3\"\n";
  rejects "number where bool expected" "[case.x]\nskip = 1\n";
  rejects "non-positive threshold" "[bench]\nmax_regression = 0\n";
  rejects "negative sigma" "[bench]\nsigma = -1\n";
  rejects "key outside any section" "max_regression = 0.1\n";
  rejects "unterminated array" "[bench]\nrequired_metrics = [\"a\",\n";
  rejects "malformed value" "[bench]\nsigma = fast\n"

(* --- snapshot diff (the ckpt-obs diff engine) ----------------------- *)

module Snapshot_diff = Ckpt_bench.Snapshot_diff

let parse_doc s =
  let path = Filename.temp_file "ckpt_snapdiff_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Snapshot_diff.load path)

let test_snapshot_diff_file_shapes () =
  (* Bare --metrics json snapshot. *)
  let bare = parse_doc {|{"metrics":{"mc.runs":1000},"timings":{"pool.wall_s":0.5}}|} in
  Alcotest.(check int) "bare: engine rows" 1 (List.length bare.Snapshot_diff.engine);
  (* A snapshot beside other top-level keys. *)
  let combined =
    parse_doc {|{"bench":{"quick":true},"metrics":{"mc.runs":1000},"timings":{}}|}
  in
  Alcotest.(check int) "combined: engine rows" 1 (List.length combined.Snapshot_diff.engine);
  (* A full BENCH_<n>.json: snapshot nested under the top-level
     "metrics" key, recognizable because that object itself carries
     metrics/timings. *)
  let bench =
    parse_doc
      {|{"schema_version":1,"meta":{},"cases":[],
         "metrics":{"metrics":{"mc.runs":1000,"sim.failures":3},
                    "timings":{"pool.wall_s":0.5}}}|}
  in
  Alcotest.(check int) "BENCH file: engine rows" 2 (List.length bench.Snapshot_diff.engine);
  Alcotest.(check int) "BENCH file: timing rows" 1 (List.length bench.Snapshot_diff.timing);
  match parse_doc {|{"cases":[]}|} with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "file without a snapshot should be rejected"

let test_snapshot_diff_gating () =
  let base =
    parse_doc
      {|{"metrics":{"steady":100,"drifty":100,"gone":5,"zero":0,
                    "hist":{"count":10,"total":1.5}},
         "timings":{"wall":1.0}}|}
  in
  let cand =
    parse_doc
      {|{"metrics":{"steady":109,"drifty":120,"zero":0,
                    "hist":{"count":25,"total":9.9},"fresh":1},
         "timings":{"wall":40.0}}|}
  in
  let r = Snapshot_diff.diff ~base cand in
  let verdict_in (r : Snapshot_diff.report) name =
    match List.find_opt (fun (row : Snapshot_diff.row) -> row.name = name) r.Snapshot_diff.rows with
    | Some row -> Snapshot_diff.verdict_to_string row.Snapshot_diff.verdict
    | None -> Alcotest.failf "no row for %s" name
  in
  let verdict = verdict_in r in
  Alcotest.(check string) "+9% within the 10% band" "ok" (verdict "steady");
  Alcotest.(check string) "+20% drifts" "DRIFT" (verdict "drifty");
  Alcotest.(check string) "removed engine metric gates" "MISSING" (verdict "gone");
  Alcotest.(check string) "0 -> 0 matches" "ok" (verdict "zero");
  Alcotest.(check string) "histograms compare by count" "DRIFT" (verdict "hist");
  Alcotest.(check string) "new rows informational" "new" (verdict "fresh");
  Alcotest.(check string) "timing 40x is still info" "info" (verdict "wall");
  Alcotest.(check bool) "gate fails" false (Snapshot_diff.ok r);
  Alcotest.(check int) "two drifts" 2 r.Snapshot_diff.drifted;
  Alcotest.(check int) "one missing" 1 r.Snapshot_diff.removed;
  (* Widening the band clears the numeric drifts but never the removal. *)
  let wide = Snapshot_diff.diff ~max_change:2.0 ~base cand in
  Alcotest.(check int) "wide band: no drift" 0 wide.Snapshot_diff.drifted;
  Alcotest.(check bool) "missing still gates" false (Snapshot_diff.ok wide);
  (* 0 -> nonzero cannot hide inside a relative band. *)
  let base0 = parse_doc {|{"metrics":{"zero":0},"timings":{}}|} in
  let cand0 = parse_doc {|{"metrics":{"zero":3},"timings":{}}|} in
  let r0 = Snapshot_diff.diff ~max_change:99.0 ~base:base0 cand0 in
  Alcotest.(check int) "0 -> 3 drifts at any band" 1 r0.Snapshot_diff.drifted;
  (* An Engine number that turns null is a gauge whose code stopped
     running; a gauge null in the baseline, or a Timing row, never gates. *)
  let base_null =
    parse_doc {|{"metrics":{"mc.ci_rel_half_width":0.01,"unset":null},"timings":{"t":1.0}}|}
  in
  let cand_null =
    parse_doc {|{"metrics":{"mc.ci_rel_half_width":null,"unset":4},"timings":{"t":null}}|}
  in
  let rn = Snapshot_diff.diff ~max_change:99.0 ~base:base_null cand_null in
  Alcotest.(check string) "number -> null drifts" "DRIFT" (verdict_in rn "mc.ci_rel_half_width");
  Alcotest.(check string) "null -> number is info" "info" (verdict_in rn "unset");
  Alcotest.(check string) "timing number -> null is info" "info" (verdict_in rn "t");
  Alcotest.(check bool) "number -> null fails the gate" false (Snapshot_diff.ok rn)

let test_snapshot_diff_render () =
  let base = parse_doc {|{"metrics":{"a":1,"b":10},"timings":{}}|} in
  let cand = parse_doc {|{"metrics":{"a":1,"b":20},"timings":{}}|} in
  let r = Snapshot_diff.diff ~base cand in
  let out = Snapshot_diff.render r in
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "drifted row shown" true (contains out "DRIFT");
  Alcotest.(check bool) "summary says FAIL" true (contains out "— FAIL");
  Alcotest.(check bool) "matching row hidden by default" false (contains out "ok");
  let all = Snapshot_diff.render ~all:true r in
  Alcotest.(check bool) "matching row shown with ~all" true (contains all "ok");
  let good = Snapshot_diff.render (Snapshot_diff.diff ~base base) in
  Alcotest.(check bool) "clean diff says ok" true (contains good "— ok")

(* --- obs integration ------------------------------------------------ *)

let test_metrics_find () =
  let counter = Ckpt_obs.Metrics.counter "test.bench_find" in
  Ckpt_obs.Metrics.incr counter;
  let snapshot = Ckpt_obs.Metrics.snapshot () in
  (match Ckpt_obs.Metrics.find snapshot "test.bench_find" with
  | Some (Ckpt_obs.Metrics.Engine, Ckpt_obs.Metrics.Counter n) ->
      Alcotest.(check bool) "counter incremented" true (n >= 1)
  | _ -> Alcotest.fail "expected an engine counter");
  Alcotest.(check bool) "absent name" true
    (Option.is_none (Ckpt_obs.Metrics.find snapshot "test.no_such_metric"))

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json: number precision" `Quick test_json_number_precision;
    Alcotest.test_case "json: rejects malformed input" `Quick test_json_rejects;
    Alcotest.test_case "json: nesting depth bound" `Quick test_json_depth_bound;
    Alcotest.test_case "json: escape decoding" `Quick test_escape_decoding;
    QCheck_alcotest.to_alcotest qcheck_json_round_trip;
    Alcotest.test_case "schema: round-trip" `Quick test_schema_round_trip;
    Alcotest.test_case "schema: rejects bad files" `Quick test_schema_rejects;
    Alcotest.test_case "schema: typed required-keys check" `Quick test_required_keys_typed;
    Alcotest.test_case "compare: verdicts" `Quick test_comparator_verdicts;
    Alcotest.test_case "compare: bench.toml overrides" `Quick test_comparator_overrides;
    Alcotest.test_case "config: accepts and applies" `Quick test_config_accepts;
    Alcotest.test_case "config: rejects malformed input" `Quick test_config_rejects;
    Alcotest.test_case "snapshot-diff: accepted file shapes" `Quick
      test_snapshot_diff_file_shapes;
    Alcotest.test_case "snapshot-diff: engine gating" `Quick test_snapshot_diff_gating;
    Alcotest.test_case "snapshot-diff: rendering" `Quick test_snapshot_diff_render;
    Alcotest.test_case "obs: Metrics.find" `Quick test_metrics_find;
  ]
