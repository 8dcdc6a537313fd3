(* The traced run's plumbing. Spans are recorded from the benchmark's
   own code around each call into a layer, kept in memory, and written
   at the end as the JSON Lines that [ckpt-obs report] reads. Every
   workload wraps its traced work in root spans named "perfbench.*"; the
   self time of those roots is the benchmark's own glue, and the layer
   spans under them account for the rest of the wall time. *)

module Span = Ckpt_obs.Span
module Metrics = Ckpt_obs.Metrics
module Trace_reader = Ckpt_obs.Trace_reader

let out_dir = ".perfbench"

let start () =
  Span.reset ();
  Span.set_enabled true

let layer name f = Span.with_ ~name f
let root name f = Span.with_ ~name:("perfbench." ^ name) f

(* Current value of a counter of the program's metrics registry. *)
let counter name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (_, Metrics.Counter n) -> n
  | _ -> failwith ("no counter " ^ name)

let minor_words () = Gc.minor_words ()
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Sum of the durations, in seconds, of every recorded span [name]. *)
let total_s records name =
  List.fold_left
    (fun acc (r : Span.record) -> if r.name = name then acc +. (Int64.to_float r.dur_ns /. 1e9) else acc)
    0.0 records

let durations_s records name =
  List.filter_map
    (fun (r : Span.record) -> if r.name = name then Some (Int64.to_float r.dur_ns /. 1e9) else None)
    records
  |> Array.of_list

let is_root_name name = String.starts_with ~prefix:"perfbench." name

(* Stop recording, write the JSONL, read it back through the
   [ckpt-obs report] reader, check that self times close over the root
   wall time, and report the share of the workload's wall time that no
   layer span covers. Returns the records. *)
let finish report ~workload ~seed =
  Span.set_enabled false;
  let records = Span.records () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.jsonl" workload seed) in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Span.to_jsonl records));
  Report.note "trace: %d spans written to %s" (List.length records) path;
  match Trace_reader.parse_jsonl (In_channel.with_open_text path In_channel.input_all) with
  | Error msg ->
      Report.check report "trace JSONL reads back" false;
      Report.note "  %s" msg;
      records
  | Ok parsed ->
      let r = Trace_reader.report (Trace_reader.build parsed) in
      let spans = float_of_int r.Trace_reader.spans in
      (* Durations are whole nanoseconds, so closure holds to float
         rounding of the sums: allow one nanosecond per span. *)
      let gap = Float.abs (r.Trace_reader.total_self_ns -. r.Trace_reader.root_wall_ns) in
      Report.check report "trace self-time closure" (gap <= spans);
      let wall =
        List.fold_left
          (fun acc (t : Trace_reader.tree) ->
            if is_root_name t.record.name then acc +. Int64.to_float t.record.dur_ns else acc)
          0.0 r.Trace_reader.roots
      in
      let glue =
        List.fold_left
          (fun acc (s : Trace_reader.stat) -> if is_root_name s.name then acc +. s.self_ns else acc)
          0.0 r.Trace_reader.stats
      in
      Report.detail "trace.closure_gap_ns" ~unit:"ns" gap;
      Report.per_layer report "trace.unattributed_share" ~unit:"ratio"
        (if wall > 0.0 then glue /. wall else 0.0);
      records
