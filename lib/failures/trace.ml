type t = {
  times : float array;
  horizon : float;
  processors : int;
  law : string;
  seed : int64;
}

let generate ?rejuvenation ~platform ~horizon rng =
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg "Trace.generate: horizon must be positive and finite";
  let stream = Failure_stream.of_platform ?rejuvenation platform rng in
  let rec collect acc time =
    let next = Failure_stream.next_after stream time in
    if next > horizon then List.rev acc else collect (next :: acc) next
  in
  let times = Array.of_list (collect [] 0.0) in
  {
    times;
    horizon;
    processors = platform.Platform.processors;
    law = Ckpt_dist.Law.to_string platform.Platform.proc_law;
    seed = Ckpt_prng.Rng.seed_of rng;
  }

let of_times ?(processors = 1) ?(law = "imported") ?(seed = 0L) ~horizon times =
  if not (horizon > 0.0 && Float.is_finite horizon) then
    invalid_arg "Trace.of_times: horizon must be positive and finite";
  let n = Array.length times in
  for i = 0 to n - 1 do
    if not (times.(i) >= 0.0 && times.(i) <= horizon) then
      invalid_arg "Trace.of_times: time out of [0, horizon]";
    if i > 0 && times.(i) < times.(i - 1) then invalid_arg "Trace.of_times: unsorted times"
  done;
  { times = Array.copy times; horizon; processors; law; seed }

let count t = Array.length t.times

let inter_arrival t =
  Array.mapi (fun i x -> if i = 0 then x else x -. t.times.(i - 1)) t.times

let mtbf t = if count t = 0 then infinity else t.horizon /. float_of_int (count t)

let to_stream t = Failure_stream.of_times t.times

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# ckpt-workflows failure trace v1\n";
      Printf.fprintf oc "horizon %.17g\n" t.horizon;
      Printf.fprintf oc "processors %d\n" t.processors;
      Printf.fprintf oc "law %s\n" t.law;
      Printf.fprintf oc "seed %Ld\n" t.seed;
      Printf.fprintf oc "count %d\n" (count t);
      Array.iter (fun time -> Printf.fprintf oc "%.17g\n" time) t.times)

let load path =
  Text_log.with_file path ~magic:"# ckpt-workflows failure trace v1" (fun r ->
      let horizon = Text_log.horizon r in
      let processors = Text_log.count r "processors" (Text_log.field r "processors") in
      let law = Text_log.field r "law" in
      let seed = Int64.of_string_opt (Text_log.field r "seed") in
      let seed = match seed with Some s -> s | None -> Text_log.fail r "seed must be an integer" in
      let n = Text_log.count r "count" (Text_log.field r "count") in
      let rec read acc after i =
        if i = n then Array.of_list (List.rev acc)
        else
          match Text_log.line r with
          | None -> Text_log.fail r "truncated trace: expected %d times, got %d" n i
          | Some l ->
              let time = Text_log.time r ~horizon ~after (String.trim l) in
              read (time :: acc) time (i + 1)
      in
      of_times ~processors ~law ~seed ~horizon (read [] 0.0 0))
