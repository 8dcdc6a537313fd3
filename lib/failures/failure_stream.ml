module Rng = Ckpt_prng.Rng
module Law = Ckpt_dist.Law

type rejuvenation = Failed_only | All_processors

type poisson_state = { rate : float; p_rng : Rng.t; mutable next : float }

type renewal_state = {
  law : Law.t;
  rejuvenation : rejuvenation;
  r_rng : Rng.t;
  heap : int Min_heap.t;  (* (absolute failure time, processor) *)
}

type replay_state = { times : float array; mutable cursor : int }

type state =
  | Poisson of poisson_state
  | Renewal of renewal_state
  | Replay of replay_state

type t = { state : state; mutable last_query : float }

let poisson ~rate rng =
  (* [not (...)] also rejects NaN, which [rate <= 0] would admit. An
     infinite rate would answer a query with the query time itself,
     breaking the strictly-later contract. *)
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Failure_stream.poisson: rate must be positive and finite";
  let first = -.log (Rng.float_pos rng) /. rate in
  { state = Poisson { rate; p_rng = rng; next = first }; last_query = neg_infinity }

let renewal ?(rejuvenation = Failed_only) ~law ~processors rng =
  if processors <= 0 then invalid_arg "Failure_stream.renewal: processors must be positive";
  (match Law.validate law with
  | Error msg -> invalid_arg ("Failure_stream.renewal: " ^ msg)
  | Ok _ -> ());
  let heap = Min_heap.create () in
  for proc = 0 to processors - 1 do
    Min_heap.push heap (Law.sample law rng) proc
  done;
  { state = Renewal { law; rejuvenation; r_rng = rng; heap }; last_query = neg_infinity }

let of_platform ?rejuvenation (platform : Platform.t) rng =
  match platform.Platform.proc_law with
  | Law.Exponential { rate } ->
      poisson ~rate:(float_of_int platform.Platform.processors *. rate) rng
  | law -> renewal ?rejuvenation ~law ~processors:platform.Platform.processors rng

let of_times times =
  let n = Array.length times in
  for i = 0 to n - 1 do
    if not (times.(i) >= 0.0) then
      invalid_arg "Failure_stream.of_times: negative or NaN time";
    if i > 0 && times.(i) < times.(i - 1) then
      invalid_arg "Failure_stream.of_times: times must be sorted"
  done;
  { state = Replay { times = Array.copy times; cursor = 0 }; last_query = neg_infinity }

let renewal_next_after r time =
  let rec loop () =
    match Min_heap.peek r.heap with
    | None -> assert false (* processors >= 1, heap never empty *)
    | Some (fail_time, proc) ->
        if fail_time > time then fail_time
        else begin
          (* This failure falls at or before the query point (absorbed by
             a downtime window or already handled): the processor's clock
             renews at its failure instant. *)
          ignore (Min_heap.pop r.heap);
          (match r.rejuvenation with
          | Failed_only -> Min_heap.push r.heap (fail_time +. Law.sample r.law r.r_rng) proc
          | All_processors ->
              let procs = ref [ proc ] in
              let rec drain () =
                match Min_heap.pop r.heap with
                | None -> ()
                | Some (_, p) ->
                    procs := p :: !procs;
                    drain ()
              in
              drain ();
              List.iter
                (fun p -> Min_heap.push r.heap (fail_time +. Law.sample r.law r.r_rng) p)
                !procs);
          loop ()
        end
  in
  loop ()

let next_after t time =
  if time < t.last_query then
    invalid_arg "Failure_stream.next_after: query times must be non-decreasing";
  t.last_query <- time;
  match t.state with
  | Poisson p ->
      (* Memorylessness: if the scheduled event is in the past (it fell
         inside a skipped window), redraw from the query point. *)
      if p.next > time then p.next
      else begin
        let fresh = time -. (log (Rng.float_pos p.p_rng) /. p.rate) in
        p.next <- fresh;
        fresh
      end
  | Renewal r -> renewal_next_after r time
  | Replay r ->
      let n = Array.length r.times in
      while r.cursor < n && r.times.(r.cursor) <= time do
        r.cursor <- r.cursor + 1
      done;
      if r.cursor < n then r.times.(r.cursor) else infinity
