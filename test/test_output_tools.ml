(* Tests for the output helpers: ASCII plots and law-spec parsing. *)

module Ascii_plot = Ckpt_stats.Ascii_plot
module Law = Ckpt_dist.Law
module Law_spec = Ckpt_dist.Law_spec

let close ?(tol = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: |%.12g - %.12g| < %g" name expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.max 1.0 (Float.abs expected))

let test_plot_basic () =
  let points = List.init 10 (fun i -> (float_of_int i, float_of_int (i * i))) in
  let rendered = Ascii_plot.single ~width:40 ~height:10 ~title:"parabola" points in
  Alcotest.(check bool) "title present" true (Astring_like.contains rendered "parabola");
  Alcotest.(check bool) "stars plotted" true (Astring_like.contains rendered "*");
  (* 10 grid rows + title + axis + x labels. *)
  Alcotest.(check int) "line count" 13
    (List.length (String.split_on_char '\n' (String.trim rendered)))

let test_plot_log_axes () =
  let points = [ (1.0, 10.0); (10.0, 1000.0); (100.0, 100000.0) ] in
  let rendered = Ascii_plot.single ~log_x:true ~log_y:true points in
  Alcotest.(check bool) "log annotation" true (Astring_like.contains rendered "(log x,y)")

let test_plot_multi_series () =
  let s1 = { Ascii_plot.label = 'a'; points = [ (0.0, 0.0); (1.0, 1.0) ] } in
  let s2 = { Ascii_plot.label = 'b'; points = [ (0.0, 1.0); (1.0, 0.0) ] } in
  let rendered = Ascii_plot.plot [ s1; s2 ] in
  Alcotest.(check bool) "series a" true (Astring_like.contains rendered "a");
  Alcotest.(check bool) "series b" true (Astring_like.contains rendered "b")

let test_plot_validation () =
  (match Ascii_plot.single [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty input accepted");
  match Ascii_plot.single ~log_x:true [ (-1.0, 2.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative coordinate on log axis accepted"

let test_law_spec_parse () =
  (match Law_spec.parse_exn "exp:1000" with
  | Law.Exponential { rate } -> close "exp rate" 1e-3 rate
  | law -> Alcotest.fail (Law.to_string law));
  (match Law_spec.parse_exn "weibull:0.7:500" with
  | Law.Weibull _ as law -> close ~tol:1e-9 "weibull mean" 500.0 (Law.mean law)
  | law -> Alcotest.fail (Law.to_string law));
  (match Law_spec.parse_exn "lognormal:1.5:200" with
  | Law.Log_normal _ as law -> close ~tol:1e-9 "lognormal mean" 200.0 (Law.mean law)
  | law -> Alcotest.fail (Law.to_string law));
  (match Law_spec.parse_exn "uniform:2:8" with
  | Law.Uniform { lo; hi } -> Alcotest.(check bool) "bounds" true (Float.equal lo 2.0 && Float.equal hi 8.0)
  | law -> Alcotest.fail (Law.to_string law));
  (match Law_spec.parse_exn "gamma:2:10" with
  | Law.Gamma _ as law -> close ~tol:1e-9 "gamma mean" 10.0 (Law.mean law)
  | law -> Alcotest.fail (Law.to_string law));
  match Law_spec.parse_exn "deterministic:42" with
  | Law.Deterministic v -> close "deterministic" 42.0 v
  | law -> Alcotest.fail (Law.to_string law)

let test_law_spec_errors () =
  List.iter
    (fun spec ->
      match Law_spec.parse spec with
      | Error _ -> ()
      | Ok law -> Alcotest.fail (Printf.sprintf "%S accepted as %s" spec (Law.to_string law)))
    [ "bogus"; "exp"; "exp:zero"; "weibull:0.7"; "uniform:8:2"; "exp:-5" ]

let test_law_spec_non_finite () =
  (* Every parameter must be finite. These used to parse: exp:0 made a
     rate-infinity Poisson stream that answered each query with the
     query time itself, the NaN ones died later on a NaN heap key, and
     the infinite ones simulated no failure at all. *)
  List.iter
    (fun spec ->
      match Law_spec.parse spec with
      | Error _ -> ()
      | Ok law -> Alcotest.fail (Printf.sprintf "%S accepted as %s" spec (Law.to_string law)))
    [ "exp:0"; "exp:inf"; "exp:nan"; "weibull:nan:1000"; "weibull:0.7:nan"; "weibull:-0.5:1000";
      "weibull:inf:1000"; "lognormal:nan:1000"; "lognormal:1:inf"; "gamma:2:inf"; "gamma:nan:10";
      "uniform:0:inf"; "uniform:nan:1"; "deterministic:inf"; "deterministic:nan" ]

let test_law_spec_round_trip () =
  List.iter
    (fun spec ->
      let law = Law_spec.parse_exn spec in
      let reparsed = Law_spec.parse_exn (Law_spec.to_spec law) in
      close (spec ^ ": mean preserved") (Law.mean law) (Law.mean reparsed);
      close (spec ^ ": variance preserved") (Law.variance law) (Law.variance reparsed))
    [ "exp:1000"; "weibull:0.7:500"; "lognormal:1.5:200"; "uniform:2:8"; "gamma:2:10";
      "deterministic:42" ]

let suite =
  [
    Alcotest.test_case "plot basics" `Quick test_plot_basic;
    Alcotest.test_case "plot log axes" `Quick test_plot_log_axes;
    Alcotest.test_case "plot multi-series" `Quick test_plot_multi_series;
    Alcotest.test_case "plot validation" `Quick test_plot_validation;
    Alcotest.test_case "law-spec parsing" `Quick test_law_spec_parse;
    Alcotest.test_case "law-spec errors" `Quick test_law_spec_errors;
    Alcotest.test_case "law-spec non-finite parameters" `Quick test_law_spec_non_finite;
    Alcotest.test_case "law-spec round trip" `Quick test_law_spec_round_trip;
  ]
