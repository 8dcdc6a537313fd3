(* What one run reports. Human-readable lines go to stderr as the run
   goes; the last line of stdout is one JSON object with the verdict of
   the output checks, the operation counts and the metrics of the mode
   the run was in: end-to-end metrics untraced, per-layer metrics traced. *)

module Json = Ckpt_json.Json

(* Metric names: a letter or digit first, then letters, digits, '_', '.'
   and '-', at most 64 characters (the limit on names in BENCHMARK.json). *)
let valid_name s =
  let ok_first c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let ok c = ok_first c || c = '_' || c = '.' || c = '-' in
  let n = String.length s in
  n > 0 && n <= 64 && ok_first s.[0] && String.for_all ok s

type section = End_to_end | Per_layer

type t = {
  mutable metrics : (section * string * float * string) list;  (** Newest first. *)
  mutable attempted : int;
  mutable failures : (string * int) list;  (** Cause, count. *)
  mutable checks : (string * bool) list;
}

let create () = { metrics = []; attempted = 0; failures = []; checks = [] }

let note fmt = Printf.ksprintf prerr_endline fmt

let record t section name ~unit value =
  if not (valid_name name) then invalid_arg ("Report: bad metric name " ^ name);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Report: %s is not finite (%g)" name value);
  t.metrics <- (section, name, value, unit) :: t.metrics;
  note "  %-38s %16.6f %s" name value unit

let end_to_end t name ~unit value = record t End_to_end name ~unit value
let per_layer t name ~unit value = record t Per_layer name ~unit value

(* A figure for the human report only: not a benchmark metric, or one
   that only exists on this workload. *)
let detail name ~unit value = note "  %-38s %16.6f %s" name value unit

(* The sample count and spread behind a median. *)
let samples name ~unit values =
  let s = Array.copy values in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n > 0 then
    note "  %s: %d samples, min %.6g, quartiles %.6g / %.6g / %.6g, max %.6g %s" name n s.(0)
      s.(n / 4) s.(n / 2) s.(3 * n / 4) s.(n - 1) unit

let attempt ?(n = 1) t = t.attempted <- t.attempted + n

let fail ?(n = 1) t cause =
  if n > 0 then
    t.failures <-
      (match List.assoc_opt cause t.failures with
      | Some k -> (cause, k + n) :: List.remove_assoc cause t.failures
      | None -> (cause, n) :: t.failures)

let failed t = List.fold_left (fun acc (_, k) -> acc + k) 0 t.failures

let check t name ok =
  t.checks <- (name, ok) :: t.checks;
  note "check %-44s %s" name (if ok then "ok" else "FAILED")

let correct t = t.checks <> [] && List.for_all snd t.checks

(* Operation accounting, with failures broken down by cause. *)
let summary t =
  let failed = failed t in
  note "operations: attempted %d, ok %d, failed %d (failed_share %.6f)" t.attempted
    (t.attempted - failed) failed
    (if t.attempted > 0 then float_of_int failed /. float_of_int t.attempted else 0.0);
  List.iter (fun (cause, k) -> note "  failed by %s: %d" cause k) (List.rev t.failures)

let to_json t ~section =
  let metrics =
    List.rev t.metrics
    |> List.filter_map (fun (s, name, value, unit) ->
           if s = section then
             Some (name, Json.Obj [ ("value", Json.Number value); ("unit", Json.String unit) ])
           else None)
  in
  Json.Obj
    [
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Number (float_of_int t.attempted));
      ("failed", Json.Number (float_of_int (failed t)));
      ("metrics", Json.Obj metrics);
    ]
