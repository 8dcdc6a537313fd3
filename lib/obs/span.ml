let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type span_kind = Complete | Instant

type record = {
  name : string;
  span_kind : span_kind;
  start_ns : int64;
  dur_ns : int64;
  tid : int;
  depth : int;
  args : (string * string) list;
}

(* Per-domain buffers, registered once in a global list so records
   survive the recording domain's death (the Monte-Carlo pool joins its
   workers after every campaign). *)
type buf = {
  mutable items : record list;
  mutable depth : int;
  (* Stack of spans opened by [enter] and not yet closed: name, entry
     stamp, entry args. *)
  mutable open_spans : (string * int64 * (string * string) list) list;
}

let buffers_lock = Mutex.create ()

let buffers : buf list ref =
  ref [] [@@lint.domain_safe "mutex-held: registration and draining under buffers_lock"]

let dls_buf : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { items = []; depth = 0; open_spans = [] } in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let self_tid () = (Domain.self () :> int)

let instant ?(args = []) name =
  if enabled () then begin
    let b = Domain.DLS.get dls_buf in
    b.items <-
      {
        name;
        span_kind = Instant;
        start_ns = Clock.now_ns ();
        dur_ns = 0L;
        tid = self_tid ();
        depth = b.depth;
        args;
      }
      :: b.items
  end

let enter ?(args = []) name =
  if enabled () then begin
    let b = Domain.DLS.get dls_buf in
    b.open_spans <- (name, Clock.now_ns (), args) :: b.open_spans;
    b.depth <- b.depth + 1
  end

(* Close the innermost open span. Extra [args] are prepended to the
   entry args. A pop with nothing open (spans were enabled mid-scope,
   or the caller is unbalanced) records nothing. Named [leave]
   internally so no bare [exit] expression appears in this module; the
   public alias below keeps the conventional name. *)
let leave ?(args = []) () =
  if enabled () then begin
    let b = Domain.DLS.get dls_buf in
    match b.open_spans with
    | [] -> ()
    | (name, start_ns, entry_args) :: rest ->
        b.open_spans <- rest;
        let depth = b.depth - 1 in
        b.depth <- depth;
        let dur_ns = Int64.sub (Clock.now_ns ()) start_ns in
        b.items <-
          {
            name;
            span_kind = Complete;
            start_ns;
            dur_ns;
            tid = self_tid ();
            depth;
            args = args @ entry_args;
          }
          :: b.items
  end

let exit = leave

let with_ ?(args = []) ~name f =
  if not (enabled ()) then f ()
  else begin
    enter ~args name;
    match f () with
    | result ->
        leave ();
        result
    | exception e ->
        leave ~args:[ ("raised", "true") ] ();
        raise e
  end

let records () =
  let bufs = Mutex.protect buffers_lock (fun () -> List.rev !buffers) in
  List.concat_map (fun b -> List.rev b.items) bufs
  |> List.sort (fun a b ->
         match Int64.compare a.start_ns b.start_ns with
         | 0 -> ( match compare a.tid b.tid with 0 -> compare a.depth b.depth | c -> c)
         | c -> c)

let reset () =
  Mutex.protect buffers_lock (fun () ->
      List.iter
        (fun b ->
          b.items <- [];
          b.depth <- 0;
          b.open_spans <- [])
        !buffers)

let summary_table records =
  let by_name : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 16 [@@lint.domain_safe "call-local aggregation; never escapes summary_table"]
  in
  List.iter
    (fun r ->
      if r.span_kind = Complete then begin
        let ms = Int64.to_float r.dur_ns /. 1e6 in
        match Hashtbl.find_opt by_name r.name with
        | Some (calls, total, mx) ->
            Stdlib.incr calls;
            total := !total +. ms;
            if ms > !mx then mx := ms
        | None -> Hashtbl.add by_name r.name (ref 1, ref ms, ref ms)
      end)
    records;
  let rows =
    Hashtbl.fold (fun name (calls, total, mx) acc -> (name, !calls, !total, !mx) :: acc)
      by_name []
    |> List.sort (fun (na, _, ta, _) (nb, _, tb, _) ->
           match Float.compare tb ta with 0 -> String.compare na nb | c -> c)
  in
  let t =
    Ckpt_stats.Table.create ~title:"spans — aggregate by name"
      ~columns:
        [ ("span", Ckpt_stats.Table.Left); ("calls", Ckpt_stats.Table.Right);
          ("total ms", Ckpt_stats.Table.Right); ("mean ms", Ckpt_stats.Table.Right);
          ("max ms", Ckpt_stats.Table.Right) ]
  in
  List.iter
    (fun (name, calls, total, mx) ->
      Ckpt_stats.Table.add_row t
        [
          name; string_of_int calls; Printf.sprintf "%.3f" total;
          Printf.sprintf "%.3f" (total /. float_of_int calls); Printf.sprintf "%.3f" mx;
        ])
    rows;
  Ckpt_stats.Table.render t

let json_args args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Ckpt_json.Json.escape k) (Ckpt_json.Json.escape v))
         args)
  ^ "}"

let to_jsonl records =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"kind\":\"%s\",\"start_ns\":%Ld,\"dur_ns\":%Ld,\"tid\":%d,\"depth\":%d,\"args\":%s}\n"
           (Ckpt_json.Json.escape r.name)
           (match r.span_kind with Complete -> "span" | Instant -> "instant")
           r.start_ns r.dur_ns r.tid r.depth (json_args r.args)))
    records;
  Buffer.contents buf

let to_chrome records =
  let base =
    List.fold_left (fun acc r -> Int64.min acc r.start_ns) Int64.max_int records
  in
  let base = if records = [] then 0L else base in
  let us ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e3) in
  let event r =
    let ts = us (Int64.sub r.start_ns base) in
    match r.span_kind with
    | Complete ->
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"ckpt\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}"
          (Ckpt_json.Json.escape r.name) r.tid ts (us r.dur_ns) (json_args r.args)
    | Instant ->
        Printf.sprintf
          "{\"name\":\"%s\",\"cat\":\"ckpt\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":%s}"
          (Ckpt_json.Json.escape r.name) r.tid ts (json_args r.args)
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
  ^ String.concat "," (List.map event records)
  ^ "]}"
