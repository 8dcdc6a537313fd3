(* Diff of two metrics snapshots (the `ckpt-obs diff` engine).

   Inputs are JSON files carrying a Metrics snapshot: either a bare
   `--metrics json` object ({"metrics":{...},"timings":{...}}), one
   that sits beside other top-level keys, or a full BENCH_<n>.json
   whose snapshot sits under the top-level "metrics" key. Wherever it
   sits, the snapshot is the pair of "metrics" (Engine) and "timings"
   (Timing) sub-objects.

   Gating mirrors ckpt-bench diff's noise-aware rule, degenerated to
   what a snapshot carries: a snapshot has no per-sample stddev, so the
   pooled-stderr term of `max(max_regression*|base|, sigma*stderr)`
   vanishes and the effective threshold is `max_regression * |base|`.
   Engine rows beyond the threshold are Drift (gate-failing), as are
   Engine numbers that turned null or non-numeric and Engine rows that
   disappeared; new rows and everything in the Timing section are
   informational — timings vary run to run by design. *)

module Json = Ckpt_json.Json

type verdict = Match | Drift | Removed | Added | Info

let verdict_to_string = function
  | Match -> "ok"
  | Drift -> "DRIFT"
  | Removed -> "MISSING"
  | Added -> "new"
  | Info -> "info"

type row = {
  name : string;
  section : [ `Engine | `Timing ];
  base : float option;
  cand : float option;
  delta_rel : float option;  (** [(cand - base) / |base|] when both sides are numeric. *)
  verdict : verdict;
}

type report = {
  rows : row list;
  drifted : int;
  removed : int;
  added : int;
  max_change : float;
}

let ok r = r.drifted = 0 && r.removed = 0

(* --- loading -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A metric value as one comparable float: numbers as themselves,
   histograms by their observation count (the deterministic part most
   sensitive to behaviour changes), null gauges as absent. *)
let numeric = function
  | Json.Number x -> Some x
  | Json.Obj _ as h -> Option.map float_of_int (Option.bind (Json.member "count" h) Json.to_int)
  | _ -> None

let section_fields json key =
  match Option.bind (Json.member key json) Json.to_obj with
  | Some fields -> fields
  | None -> []

type snapshot_doc = {
  engine : (string * Json.t) list;
  timing : (string * Json.t) list;
}

let parse_doc contents =
  let json = Json.parse contents in
  (* BENCH files nest the snapshot under "metrics"; `--metrics json`
     output IS the snapshot. Distinguish by the sub-object's own shape:
     a BENCH "metrics" value contains "metrics"/"timings" itself. *)
  let root =
    match Json.member "metrics" json with
    | Some inner when Json.member "metrics" inner <> None -> inner
    | _ -> json
  in
  match (Json.member "metrics" root, Json.member "timings" root) with
  | None, None ->
      raise (Json.Parse_error "no \"metrics\"/\"timings\" snapshot found in this file")
  | _ ->
      { engine = section_fields root "metrics"; timing = section_fields root "timings" }

let load path = parse_doc (read_file path)

(* --- diff ----------------------------------------------------------- *)

let default_max_change = 0.10

let diff_section ~section ~max_change base cand =
  let gate = match section with `Engine -> true | `Timing -> false in
  let base_rows =
    List.map
      (fun (name, bv) ->
        match List.assoc_opt name cand with
        | None ->
            {
              name;
              section;
              base = numeric bv;
              cand = None;
              delta_rel = None;
              verdict = (if gate then Removed else Info);
            }
        | Some cv -> (
            match (numeric bv, numeric cv) with
            | Some b, Some c ->
                let delta = c -. b in
                let delta_rel =
                  if Float.equal b 0.0 then None else Some (delta /. Float.abs b)
                in
                let threshold = max_change *. Float.abs b in
                let within =
                  if Float.equal b 0.0 then Float.equal c 0.0
                  else Float.abs delta <= threshold
                in
                {
                  name;
                  section;
                  base = Some b;
                  cand = Some c;
                  delta_rel;
                  verdict =
                    (if not gate then Info else if within then Match else Drift);
                }
            | b, c ->
                (* An Engine number that turned null or non-numeric is
                   a gauge whose code stopped running: Drift. Null on
                   the baseline side has nothing to gate. *)
                let verdict = if gate && Option.is_some b then Drift else Info in
                { name; section; base = b; cand = c; delta_rel = None; verdict }))
      base
  in
  let added =
    List.filter_map
      (fun (name, cv) ->
        if List.mem_assoc name base then None
        else
          Some
            {
              name;
              section;
              base = None;
              cand = numeric cv;
              delta_rel = None;
              verdict = Added;
            })
      cand
  in
  base_rows @ added

let diff ?(max_change = default_max_change) ~base cand =
  if not (max_change >= 0.0) then
    invalid_arg "Snapshot_diff.diff: max_change must be >= 0";
  let rows =
    diff_section ~section:`Engine ~max_change base.engine cand.engine
    @ diff_section ~section:`Timing ~max_change base.timing cand.timing
  in
  let count v = List.length (List.filter (fun r -> r.verdict = v) rows) in
  { rows; drifted = count Drift; removed = count Removed; added = count Added; max_change }

(* --- rendering ------------------------------------------------------ *)

let cell = function None -> "-" | Some x -> Ckpt_stats.Table.cell_f x

let render ?(all = false) r =
  let table =
    Ckpt_stats.Table.create
      ~title:
        (Printf.sprintf "metric snapshot diff (engine gate: +/-%.0f%%, timings informational)"
           (100.0 *. r.max_change))
      ~columns:
        [
          ("metric", Ckpt_stats.Table.Left); ("section", Ckpt_stats.Table.Left);
          ("base", Ckpt_stats.Table.Right); ("candidate", Ckpt_stats.Table.Right);
          ("delta", Ckpt_stats.Table.Right); ("verdict", Ckpt_stats.Table.Left);
        ]
  in
  let interesting (row : row) =
    match row.verdict with Drift | Removed -> true | Added -> true | Match | Info -> all
  in
  List.iter
    (fun row ->
      if interesting row then
        Ckpt_stats.Table.add_row table
          [
            row.name;
            (match row.section with `Engine -> "engine" | `Timing -> "timing");
            cell row.base; cell row.cand;
            (match row.delta_rel with
            | None -> "-"
            | Some d -> Printf.sprintf "%+.2f%%" (100.0 *. d));
            verdict_to_string row.verdict;
          ])
    r.rows;
  let summary =
    Printf.sprintf "snapshot-diff: %d drifted, %d missing, %d new (%d engine+timing rows)%s\n"
      r.drifted r.removed r.added (List.length r.rows)
      (if ok r then " — ok" else " — FAIL")
  in
  Ckpt_stats.Table.render table ^ summary
