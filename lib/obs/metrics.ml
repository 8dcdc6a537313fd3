type kind = Engine | Timing

type klass = KCounter | KSum | KGauge | KHistogram of float array

type spec = { name : string; kind : kind; klass : klass; slot : int }

(* Registry: one mutex, touched only at registration, shard creation and
   snapshot/reset time — never on the emission path. *)
let registry_lock = Mutex.create ()
let specs : (string, spec) Hashtbl.t =
  Hashtbl.create 64 [@@lint.domain_safe "mutex-held: all access under registry_lock"]

let n_counters = ref 0 [@@lint.domain_safe "mutex-held: bumped only inside register"]
let n_sums = ref 0 [@@lint.domain_safe "mutex-held: bumped only inside register"]
let n_gauges = ref 0 [@@lint.domain_safe "mutex-held: bumped only inside register"]
let n_histograms = ref 0 [@@lint.domain_safe "mutex-held: bumped only inside register"]

type counter = int
type sum = int
type gauge = int
type histogram = { hslot : int; buckets : float array }

let register name kind klass =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt specs name with
      | Some s ->
          if s.klass <> klass || s.kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %S re-registered with a different type" name);
          s.slot
      | None ->
          let next = function
            | KCounter -> n_counters
            | KSum -> n_sums
            | KGauge -> n_gauges
            | KHistogram _ -> n_histograms
          in
          let r = next klass in
          let slot = !r in
          r := slot + 1;
          Hashtbl.add specs name { name; kind; klass; slot };
          slot)

let counter ?(kind = Engine) name = register name kind KCounter
let sum ?(kind = Engine) name = register name kind KSum
let gauge ?(kind = Engine) name = register name kind KGauge

let histogram ?(kind = Engine) name ~buckets =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if Float.is_nan b then invalid_arg "Metrics.histogram: NaN bucket bound";
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing")
    buckets;
  let buckets = Array.copy buckets in
  { hslot = register name kind (KHistogram buckets); buckets }

(* Collectors: dense arrays indexed by per-class slot. Arrays grow on
   demand so a collector created before a late registration still
   works. *)
type collector = {
  mutable counters : int array;
  mutable sums : float array;
  mutable gauges : float array;
  mutable gauge_set : bool array;
  mutable hist_counts : int array array;  (* [||] until first observation *)
  mutable hist_total : float array;
  mutable hist_obs : int array;
}

let create_collector () =
  let nc, ns, ng, nh =
    Mutex.protect registry_lock (fun () ->
        (!n_counters, !n_sums, !n_gauges, !n_histograms))
  in
  {
    counters = Array.make nc 0;
    sums = Array.make ns 0.0;
    gauges = Array.make ng 0.0;
    gauge_set = Array.make ng false;
    hist_counts = Array.make nh [||];
    hist_total = Array.make nh 0.0;
    hist_obs = Array.make nh 0;
  }

let grown_len len n = Stdlib.max n ((2 * len) + 8)

let ensure_int a n =
  if Array.length !a >= n then ()
  else begin
    let b = Array.make (grown_len (Array.length !a) n) 0 in
    Array.blit !a 0 b 0 (Array.length !a);
    a := b
  end

let ensure_float a n =
  if Array.length !a >= n then ()
  else begin
    let b = Array.make (grown_len (Array.length !a) n) 0.0 in
    Array.blit !a 0 b 0 (Array.length !a);
    a := b
  end

let ensure_bool a n =
  if Array.length !a >= n then ()
  else begin
    let b = Array.make (grown_len (Array.length !a) n) false in
    Array.blit !a 0 b 0 (Array.length !a);
    a := b
  end

let ensure_arr a n =
  if Array.length !a >= n then ()
  else begin
    let b = Array.make (grown_len (Array.length !a) n) [||] in
    Array.blit !a 0 b 0 (Array.length !a);
    a := b
  end

(* Field-by-field growth through local refs (records hold arrays, not
   refs, to keep emission reads direct). *)
let ensure_counter c n =
  let r = ref c.counters in
  ensure_int r n;
  c.counters <- !r

let ensure_sum c n =
  let r = ref c.sums in
  ensure_float r n;
  c.sums <- !r

let ensure_gauge c n =
  let r = ref c.gauges in
  ensure_float r n;
  c.gauges <- !r;
  let r = ref c.gauge_set in
  ensure_bool r n;
  c.gauge_set <- !r

let ensure_hist c n =
  let r = ref c.hist_counts in
  ensure_arr r n;
  c.hist_counts <- !r;
  let r = ref c.hist_total in
  ensure_float r n;
  c.hist_total <- !r;
  let r = ref c.hist_obs in
  ensure_int r n;
  c.hist_obs <- !r

(* Shards: every domain's default collector, in creation order (the
   merge order of [snapshot]). Kept alive past domain death so campaign
   metrics survive the pool's joins. *)
let shards : collector list ref =
  ref [] [@@lint.domain_safe "mutex-held: pushed and drained under registry_lock"]

let register_shard c =
  Mutex.protect registry_lock (fun () -> shards := c :: !shards)

let dls_collector : collector Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = create_collector () in
      register_shard c;
      c)

let current () = Domain.DLS.get dls_collector

let with_collector c f =
  let prev = current () in
  Domain.DLS.set dls_collector c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_collector prev) f

(* The emission paths check the slot length inline and call the
   growing [ensure_*] (which allocates) only when the slot is missing,
   so an emission into a grown collector allocates nothing. *)
let incr ?(by = 1) id =
  let c = current () in
  if Array.length c.counters <= id then ensure_counter c (id + 1);
  c.counters.(id) <- c.counters.(id) + by

let add id x =
  let c = current () in
  if Array.length c.sums <= id then ensure_sum c (id + 1);
  c.sums.(id) <- c.sums.(id) +. x

let set id x =
  let c = current () in
  if Array.length c.gauges <= id then ensure_gauge c (id + 1);
  c.gauges.(id) <- x;
  c.gauge_set.(id) <- true

let bucket_index buckets v =
  let n = Array.length buckets in
  let i = ref 0 in
  while !i < n && not (v <= buckets.(!i)) do
    i := !i + 1
  done;
  !i

let observe h v =
  let c = current () in
  if Array.length c.hist_obs <= h.hslot then ensure_hist c (h.hslot + 1);
  if Array.length c.hist_counts.(h.hslot) = 0 then
    c.hist_counts.(h.hslot) <- Array.make (Array.length h.buckets + 1) 0;
  let counts = c.hist_counts.(h.hslot) in
  let i = bucket_index h.buckets v in
  counts.(i) <- counts.(i) + 1;
  c.hist_total.(h.hslot) <- c.hist_total.(h.hslot) +. v;
  c.hist_obs.(h.hslot) <- c.hist_obs.(h.hslot) + 1

(* Adds one histogram's bucket counts, total and observation count to
   slot [slot] of [c], which must exist: [merge_into]'s step for each
   histogram, and [observe_counts]. *)
let add_histogram c slot counts total observations =
  let dst = c.hist_counts.(slot) in
  if Array.length dst = 0 then c.hist_counts.(slot) <- Array.copy counts
  else Array.iteri (fun b v -> dst.(b) <- dst.(b) + v) counts;
  c.hist_total.(slot) <- c.hist_total.(slot) +. total;
  c.hist_obs.(slot) <- c.hist_obs.(slot) + observations

let observe_counts h ~counts ~total ~observations =
  if Array.length counts <> Array.length h.buckets + 1 then
    invalid_arg "Metrics.observe_counts: one count per bucket plus the overflow";
  if observations > 0 then begin
    let c = current () in
    if Array.length c.hist_obs <= h.hslot then ensure_hist c (h.hslot + 1);
    add_histogram c h.hslot counts total observations
  end

let merge_into ~dst src =
  ensure_counter dst (Array.length src.counters);
  Array.iteri (fun i v -> if v <> 0 then dst.counters.(i) <- dst.counters.(i) + v) src.counters;
  ensure_sum dst (Array.length src.sums);
  Array.iteri
    (fun i v -> if not (Float.equal v 0.0) then dst.sums.(i) <- dst.sums.(i) +. v)
    src.sums;
  ensure_gauge dst (Array.length src.gauges);
  Array.iteri
    (fun i set ->
      if set then begin
        dst.gauges.(i) <- src.gauges.(i);
        dst.gauge_set.(i) <- true
      end)
    src.gauge_set;
  ensure_hist dst (Array.length src.hist_counts);
  Array.iteri
    (fun i counts ->
      if Array.length counts > 0 then
        add_histogram dst i counts src.hist_total.(i) src.hist_obs.(i))
    src.hist_counts

type histogram_data = {
  bounds : float array;
  counts : int array;
  total : float;
  observations : int;
}

type value =
  | Counter of int
  | Sum of float
  | Gauge of float option
  | Histogram of histogram_data

type snapshot = (string * kind * value) list

let zero_collector c =
  Array.fill c.counters 0 (Array.length c.counters) 0;
  Array.fill c.sums 0 (Array.length c.sums) 0.0;
  Array.fill c.gauges 0 (Array.length c.gauges) 0.0;
  Array.fill c.gauge_set 0 (Array.length c.gauge_set) false;
  Array.iteri
    (fun i counts -> if Array.length counts > 0 then c.hist_counts.(i) <- [||])
    c.hist_counts;
  Array.fill c.hist_total 0 (Array.length c.hist_total) 0.0;
  Array.fill c.hist_obs 0 (Array.length c.hist_obs) 0

let reset () =
  Mutex.protect registry_lock (fun () -> List.iter zero_collector !shards)

let snapshot () =
  let all_specs, all_shards =
    Mutex.protect registry_lock (fun () ->
        (Hashtbl.fold (fun _ s acc -> s :: acc) specs [], List.rev !shards))
  in
  let merged = create_collector () in
  List.iter (fun shard -> merge_into ~dst:merged shard) all_shards;
  let read spec =
    match spec.klass with
    | KCounter ->
        Counter (if spec.slot < Array.length merged.counters then merged.counters.(spec.slot) else 0)
    | KSum -> Sum (if spec.slot < Array.length merged.sums then merged.sums.(spec.slot) else 0.0)
    | KGauge ->
        Gauge
          (if spec.slot < Array.length merged.gauge_set && merged.gauge_set.(spec.slot)
           then Some merged.gauges.(spec.slot)
           else None)
    | KHistogram bounds ->
        let counts =
          if spec.slot < Array.length merged.hist_counts
             && Array.length merged.hist_counts.(spec.slot) > 0
          then Array.copy merged.hist_counts.(spec.slot)
          else Array.make (Array.length bounds + 1) 0
        in
        Histogram
          {
            bounds = Array.copy bounds;
            counts;
            total =
              (if spec.slot < Array.length merged.hist_total then merged.hist_total.(spec.slot)
               else 0.0);
            observations =
              (if spec.slot < Array.length merged.hist_obs then merged.hist_obs.(spec.slot)
               else 0);
          }
  in
  all_specs
  |> List.map (fun spec -> (spec.name, spec.kind, read spec))
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let find snapshot name =
  List.find_map
    (fun (n, kind, value) -> if String.equal n name then Some (kind, value) else None)
    snapshot

(* Derived hit rates: every counter pair <base>_hits / <base>_misses
   yields <base>_hit_rate = hits / (hits + misses), or None when the
   caches were never consulted. *)
let hit_rates rows =
  List.filter_map
    (fun (name, kind, value) ->
      match value with
      | Counter hits when String.length name > 5 && Filename.check_suffix name "_hits" ->
          let base = String.sub name 0 (String.length name - 5) in
          List.find_map
            (fun (name', _, value') ->
              match value' with
              | Counter misses when String.equal name' (base ^ "_misses") ->
                  (* Guard the 0/0 case explicitly: registered but never
                     consulted caches (e.g. merged from shards that only
                     registered the pair) must derive an unset gauge,
                     never 0/0 = NaN. *)
                  let rate =
                    if hits + misses = 0 then None
                    else Some (float_of_int hits /. float_of_int (hits + misses))
                  in
                  Some (base ^ "_hit_rate", kind, Gauge rate)
              | _ -> None)
            rows
      | _ -> None)
    rows

let with_derived rows =
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) (hit_rates rows @ rows)

(* --- rendering ----------------------------------------------------- *)

let pp_bound b = if Float.equal b (Float.round b) && Float.abs b < 1e9 then Printf.sprintf "%.0f" b else Printf.sprintf "%g" b

let table_rows rows =
  List.concat_map
    (fun (name, _, value) ->
      match value with
      | Counter n -> [ (name, string_of_int n) ]
      | Sum x -> [ (name, Ckpt_stats.Table.cell_f x) ]
      | Gauge None -> [ (name, "n/a") ]
      | Gauge (Some x) -> [ (name, Ckpt_stats.Table.cell_f x) ]
      | Histogram h ->
          let buckets =
            List.init (Array.length h.counts) (fun i ->
                let label =
                  if i < Array.length h.bounds then
                    Printf.sprintf "%s[<=%s]" name (pp_bound h.bounds.(i))
                  else Printf.sprintf "%s[>%s]" name (pp_bound h.bounds.(Array.length h.bounds - 1))
                in
                (label, string_of_int h.counts.(i)))
          in
          buckets
          @ [
              (name ^ " (count)", string_of_int h.observations);
              (name ^ " (sum)", Ckpt_stats.Table.cell_f h.total);
            ])
    rows

let render_section ~title rows =
  let t =
    Ckpt_stats.Table.create ~title
      ~columns:[ ("metric", Ckpt_stats.Table.Left); ("value", Ckpt_stats.Table.Right) ]
  in
  List.iter (fun (name, cell) -> Ckpt_stats.Table.add_row t [ name; cell ]) (table_rows rows);
  Ckpt_stats.Table.render t

let split_kinds rows =
  ( List.filter (fun (_, kind, _) -> kind = Engine) rows,
    List.filter (fun (_, kind, _) -> kind = Timing) rows )

let render_table snapshot =
  let engine, timing = split_kinds (with_derived snapshot) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (render_section ~title:"metrics — deterministic engine counters" engine);
  if timing <> [] then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (render_section ~title:"timings — wall clock (varies run to run)" timing)
  end;
  Buffer.contents buf

(* --- JSON ----------------------------------------------------------- *)

let json_float x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_of_value = function
  | Counter n -> string_of_int n
  | Sum x -> json_float x
  | Gauge None -> "null"
  | Gauge (Some x) -> json_float x
  | Histogram h ->
      Printf.sprintf "{\"bounds\":[%s],\"counts\":[%s],\"sum\":%s,\"count\":%d}"
        (String.concat "," (Array.to_list (Array.map json_float h.bounds)))
        (String.concat "," (Array.to_list (Array.map string_of_int h.counts)))
        (json_float h.total) h.observations

let json_object rows =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, _, value) ->
           Printf.sprintf "\"%s\":%s" (Ckpt_json.Json.escape name) (json_of_value value))
         rows)
  ^ "}"

let to_json_fields snapshot =
  let engine, timing = split_kinds (with_derived snapshot) in
  Printf.sprintf "\"metrics\":%s,\"timings\":%s" (json_object engine) (json_object timing)

let to_json snapshot = "{" ^ to_json_fields snapshot ^ "}"
