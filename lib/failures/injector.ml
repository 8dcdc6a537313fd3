module Rng = Ckpt_prng.Rng
module Metrics = Ckpt_obs.Metrics

(* Branch-coverage counters for the fault harness: one cov.* counter
   per observable combinator branch, registered when the combinator is
   constructed — so the coverage universe of a process is exactly the
   branches its scenarios can reach, and `ckpt-sim --coverage` can
   sweep seeds until every registered counter is nonzero (see
   Ckpt_scenarios.Coverage). Registration is idempotent and happens at
   construction, never on the query hot path. *)
let cov name = Metrics.counter ("cov.injector." ^ name)

type t = { next : float -> float }

type phase = Work | Checkpoint | Recovery | Downtime

let phase_equal a b =
  match (a, b) with
  | Work, Work | Checkpoint, Checkpoint | Recovery, Recovery | Downtime, Downtime ->
      true
  | (Work | Checkpoint | Recovery | Downtime), _ -> false

let make f = { next = f }
let next t time = t.next time
let to_fun t = t.next
let of_stream stream = make (Failure_stream.next_after stream)
let never = make (fun (_ : float) -> infinity)

let exp_gap rng rate = -.log (Rng.float_pos rng) /. rate

let merge a b =
  let c_left = cov "merge.left" and c_right = cov "merge.right" in
  (* Both sources see every query, so both consume their events at or
     before it; the minimum of two pending strictly-later failures is
     itself pending and strictly later. *)
  make (fun time ->
      let fa = a.next time and fb = b.next time in
      (* NaN propagates (the executors reject it); coverage counts
         which source won the superposition race, ties to the left. *)
      if Float.is_nan fa || Float.is_nan fb then Float.min fa fb
      else if Float.compare fa fb <= 0 then begin
        Metrics.incr c_left;
        fa
      end
      else begin
        Metrics.incr c_right;
        fb
      end)

let masked ~survive_prob rng base =
  if not (survive_prob >= 0.0 && survive_prob < 1.0) then
    invalid_arg "Injector.masked: survive_prob must be in [0, 1)";
  let c_delivered = cov "masked.delivered" and c_masked = cov "masked.masked" in
  (* [delivered] caches the pending unmasked failure (query stability:
     repeated queries must not re-toss the coin); [floor] keeps the base
     queries non-decreasing while skipping masked instants. *)
  let delivered = ref neg_infinity in
  let floor = ref neg_infinity in
  let rec query time =
    if !delivered > time then !delivered
    else begin
      let fail = base.next (Float.max time !floor) in
      if Float.is_nan fail then fail
      else if Float.equal fail infinity || Rng.float rng >= survive_prob then begin
        if fail < infinity then Metrics.incr c_delivered;
        delivered := fail;
        fail
      end
      else begin
        Metrics.incr c_masked;
        (* Transient fault masked (survived by the platform): skip it
           and look strictly past the masked instant. *)
        floor := fail;
        query time
      end
    end
  in
  make query

let aftershocks ?(max_pending = 1024) ~probability ~rate ~window rng base =
  if not (probability >= 0.0 && probability < 1.0) then
    invalid_arg "Injector.aftershocks: probability must be in [0, 1)";
  if not (rate > 0.0) then invalid_arg "Injector.aftershocks: rate must be positive";
  if not (window > 0.0) then invalid_arg "Injector.aftershocks: window must be positive";
  let c_spawned = cov "aftershock.spawned"
  and c_declined = cov "aftershock.declined"
  and c_delivered = cov "aftershock.delivered"
  and c_base = cov "aftershock.base" in
  let heap : unit Min_heap.t = Min_heap.create () in
  (* The last base failure this injector delivered whose cascade has not
     yet been spawned. Spawning happens once the simulation clock passes
     the failure (the engine has handled it), so repeated queries at the
     same time cannot double-spawn. Aftershock deliveries spawn their
     own cascades when they are popped from the heap. *)
  let armed = ref neg_infinity in
  let spawn fail_time =
    if Rng.float rng < probability then begin
      let gap = exp_gap rng rate in
      if gap <= window && Min_heap.size heap < max_pending then begin
        Metrics.incr c_spawned;
        Min_heap.push heap (fail_time +. gap) ()
      end
      else Metrics.incr c_declined
    end
    else Metrics.incr c_declined
  in
  let query time =
    if !armed > neg_infinity && !armed <= time then begin
      let f = !armed in
      armed := neg_infinity;
      spawn f
    end;
    (* Aftershocks at or before the query time were absorbed (downtime
       or a skipped window); they still cascade — the node failures
       happened, the workload just never observed them directly. *)
    let rec drain () =
      match Min_heap.peek heap with
      | Some (f, ()) when f <= time ->
          ignore (Min_heap.pop heap);
          spawn f;
          drain ()
      | _ -> ()
    in
    drain ();
    let base_next = base.next time in
    match Min_heap.peek heap with
    | Some (f, ()) when f < base_next ->
        Metrics.incr c_delivered;
        f
    | _ ->
        if base_next < infinity then begin
          Metrics.incr c_base;
          armed := base_next
        end;
        base_next
  in
  make query

let exp_phase_modulated ~base_rate ~multiplier ~phase rng =
  if not (base_rate > 0.0) then
    invalid_arg "Injector.exp_phase_modulated: base_rate must be positive";
  let c_pending = cov "phase.pending" and c_redraw = cov "phase.redraw" in
  (* Pending draw and the phase it was drawn under: memorylessness lets
     us redraw from the query point whenever the phase has changed, and
     keeps repeated same-phase queries stable. *)
  let pending = ref None in
  let query time =
    let ph = phase () in
    match !pending with
    | Some (f, p) when phase_equal p ph && f > time ->
        Metrics.incr c_pending;
        f
    | _ ->
        Metrics.incr c_redraw;
        let m = multiplier ph in
        if not (m >= 0.0) then
          invalid_arg "Injector.exp_phase_modulated: negative or NaN multiplier";
        let f = if m > 0.0 then time +. exp_gap rng (base_rate *. m) else infinity in
        pending := Some (f, ph);
        f
  in
  make query

let nonhomogeneous ?(horizon = 1e15) ~rate ~rate_max rng =
  if not (rate_max > 0.0) then
    invalid_arg "Injector.nonhomogeneous: rate_max must be positive";
  let c_accept = cov "nhpp.accept" and c_reject = cov "nhpp.reject" in
  (* Ogata thinning against the constant envelope [rate_max], with the
     accepted arrival cached for query stability. Proposals past
     [horizon] short-circuit to "no further failure" so a rate function
     that vanishes at infinity cannot spin the proposal loop forever. *)
  let pending = ref neg_infinity in
  let query time =
    if !pending > time then !pending
    else begin
      let rec propose s =
        let s = s +. exp_gap rng rate_max in
        if s > horizon then infinity
        else begin
          let r = rate s in
          if not (r >= 0.0 && r <= rate_max) then
            invalid_arg "Injector.nonhomogeneous: rate must stay within [0, rate_max]";
          if Rng.float rng < r /. rate_max then begin
            Metrics.incr c_accept;
            s
          end
          else begin
            Metrics.incr c_reject;
            propose s
          end
        end
      in
      let f = propose time in
      pending := f;
      f
    end
  in
  make query
