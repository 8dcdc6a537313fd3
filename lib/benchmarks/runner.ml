module Clock = Ckpt_obs.Clock
module Json = Ckpt_json.Json
module Welford = Ckpt_stats.Welford

(* Reduce timing samples (seconds) to the schema's per-case stats. *)
let summarize ~name ~tags ~unit_ ~wall_s samples =
  let acc = Welford.create () in
  List.iter (fun s -> Welford.add acc s) samples;
  let n = Welford.count acc in
  if n = 0 then
    invalid_arg (Printf.sprintf "case %s produced no timing samples" name);
  let mean = Welford.mean acc in
  let ci99 =
    if n >= 2 then Welford.confidence_interval acc ~level:0.99 else (mean, mean)
  in
  {
    Schema.name;
    tags;
    unit_;
    samples = n;
    mean;
    stddev = Welford.stddev acc;
    ci99;
    wall_s;
  }

(* --- micro cases: Bechamel ------------------------------------------ *)

let micro_samples ~quick name fn =
  let open Bechamel in
  let witness = Toolkit.Instance.monotonic_clock in
  let label = Measure.label witness in
  let quota = Time.second (if quick then 0.2 else 0.5) in
  let cfg = Benchmark.cfg ~limit:(if quick then 500 else 2000) ~quota ~stabilize:true () in
  let test = Test.make ~name (Staged.stage fn) in
  let elt =
    match Test.elements test with
    | [ elt ] -> elt
    | _ -> invalid_arg "micro case expanded to more than one bechamel element"
  in
  let result = Benchmark.run cfg [ witness ] elt in
  (* One raw sample covers [run] iterations; per-iteration time is
     measure/run (ns -> s). Samples with few iterations are dominated
     by the two clock reads, so drop them while enough remain. *)
  let per_iter =
    Array.to_list result.Benchmark.lr
    |> List.filter_map (fun m ->
           let runs = Measurement_raw.run m in
           if Float.compare runs 0.0 > 0 then
             Some (runs, Measurement_raw.get ~label m /. runs /. 1e9)
           else None)
  in
  let filtered = List.filter (fun (runs, _) -> Float.compare runs 5.0 >= 0) per_iter in
  let chosen = if List.length filtered >= 8 then filtered else per_iter in
  List.map snd chosen

(* --- macro cases: monotonic clock loop ------------------------------ *)

let macro_samples ~quick ~repeats fn =
  let repeats = if quick then Stdlib.max 3 (repeats / 3) else repeats in
  fn ();
  List.init repeats (fun _ -> fst (Clock.time fn))

let run_case ~quick (case : Cases.case) =
  let wall_s, (samples, unit_) =
    Clock.time (fun () ->
        match case.kind with
        | Cases.Micro fn -> (micro_samples ~quick case.name fn, "s/iter")
        | Cases.Macro { repeats; fn } -> (macro_samples ~quick ~repeats fn, "s/call"))
  in
  summarize ~name:case.name ~tags:case.tags ~unit_ ~wall_s samples

let run ?(filter = fun (_ : Cases.case) -> true) ?(on_case = fun _ _ -> ())
    ~quick () =
  Ckpt_obs.Metrics.reset ();
  let cases =
    Cases.all ~quick |> List.filter filter
    |> List.map (fun case ->
           let result = run_case ~quick case in
           on_case case.Cases.name result;
           result)
  in
  let metrics =
    Json.parse (Ckpt_obs.Metrics.to_json (Ckpt_obs.Metrics.snapshot ()))
  in
  {
    Schema.meta = Schema.make_meta ~mode:(if quick then Schema.Quick else Schema.Full);
    cases;
    metrics;
  }
