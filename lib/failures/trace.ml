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
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail fmt = Printf.ksprintf (fun msg -> failwith ("Trace.load: " ^ msg)) fmt in
      let line () = try Some (input_line ic) with End_of_file -> None in
      (match line () with
      | Some "# ckpt-workflows failure trace v1" -> ()
      | _ -> fail "bad magic header in %s" path);
      let field name =
        match line () with
        | Some l when String.length l > String.length name
                      && String.sub l 0 (String.length name) = name ->
            String.sub l (String.length name + 1) (String.length l - String.length name - 1)
        | _ -> fail "missing field %s" name
      in
      let horizon = float_of_string (field "horizon") in
      let processors = int_of_string (field "processors") in
      let law = field "law" in
      let seed = Int64.of_string (field "seed") in
      let n = int_of_string (field "count") in
      let times =
        Array.init n (fun i ->
            match line () with
            | Some l -> float_of_string (String.trim l)
            | None -> fail "truncated trace: expected %d times, got %d" n i)
      in
      of_times ~processors ~law ~seed ~horizon times)
