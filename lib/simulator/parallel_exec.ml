(* Monte-Carlo replication campaigns on a Domain_team.

   Bit-identical estimates for any domain count: the run indices are
   partitioned into fixed-size batches laid on an absolute grid, one
   team task per batch; each batch is reduced sequentially into its own
   Welford accumulator and the batch accumulators are merged in
   batch-index order. Neither the batch boundaries nor the merge order
   depend on how many domains processed the batches. Run [r] always
   draws from [Rng.substream_run root r] of a root rebuilt from the
   shared seed, so the sample set itself is independent of the layout.
   A batch is handed to the sampler whole: its first and last run and
   the root, and the sampler reports every run's value in run order.

   Claiming, cancellation and first-exception capture are the team's
   (Domain_team.run): a raising batch stops further claims, the round
   drains, the exception is re-raised, and the team is shut down with
   the campaign. A campaign opens one team for all its rounds.

   Observability rides on the same batch grid: each batch runs under
   its own Ckpt_obs.Metrics collector, and the batch collectors are
   merged into the caller's collector in batch-index order after the
   round — so even float-summing metrics (sim.lost_work) are
   bit-identical for any domain count, exactly like the estimates.
   Wall-clock pool metrics (team create/shutdown, per-participant
   utilization) are tagged Timing and reported separately. *)

module Rng = Ckpt_prng.Rng
module Welford = Ckpt_stats.Welford
module Metrics = Ckpt_obs.Metrics
module Span = Ckpt_obs.Span
module Clock = Ckpt_obs.Clock

let batch_size = 256
let batches runs = (runs + batch_size - 1) / batch_size
let m_runs = Metrics.counter "mc.runs"
let m_batches = Metrics.counter "pool.batches"
let m_rounds = Metrics.counter "mc.adaptive_rounds"
let g_ci = Metrics.gauge "mc.ci_rel_half_width"
let s_spawn = Metrics.sum ~kind:Timing "pool.spawn_s"
let s_join = Metrics.sum ~kind:Timing "pool.join_s"
let s_wall = Metrics.sum ~kind:Timing "pool.wall_s"

let check_runs runs = if runs <= 0 then invalid_arg "Parallel_exec: runs must be positive"

type sampler = first:int -> last:int -> Rng.t -> (float -> unit) -> unit

let per_run sample ~first ~last root report =
  let prefix = Rng.run_prefix root in
  for r = first to last do
    report (sample r (Rng.substream_of_prefix prefix r))
  done

(* One team per campaign, created in the calling domain and sized by the
   largest round the campaign can run, so no participant is spawned
   without a batch to claim. Each spawned domain that runs a batch
   registers a metrics shard that outlives it (Metrics keeps every
   shard for snapshots): at most domains - 1 per campaign. *)
let with_campaign_team ?domains ~largest_round f =
  let domains = Option.value domains ~default:(Domain_team.default_domains ()) in
  if domains < 1 then invalid_arg "Parallel_exec: domains must be >= 1";
  let t_campaign = Clock.now_ns () in
  let team = Domain_team.create ~domains:(Stdlib.min domains (batches largest_round)) () in
  Metrics.add s_spawn (Clock.elapsed_s t_campaign);
  Fun.protect
    ~finally:(fun () ->
      let t_join = Clock.now_ns () in
      Domain_team.shutdown team;
      Metrics.add s_join (Clock.elapsed_s t_join);
      Metrics.add s_wall (Clock.elapsed_s t_campaign))
    (fun () -> f team)

let run_round ?(store = fun _ _ -> ()) team ~base ~runs ~seed sampler =
  let n = batches runs in
  let accs = Array.init n (fun _ -> Welford.create ()) in
  (* One metrics collector per batch, merged in batch order below. *)
  let mcols = Array.init n (fun _ -> Metrics.create_collector ()) in
  let size = Domain_team.size team in
  let busy_s = Array.make size 0.0 in
  let batches_done = Array.make size 0 in
  let parent = Metrics.current () in
  let t_round = Clock.now_ns () in
  Span.with_ ~name:"pool.round"
    ~args:[ ("base", string_of_int base); ("runs", string_of_int runs) ]
    (fun () ->
      Domain_team.run team ~tasks:n (fun ~participant b ->
          let lo = base + (b * batch_size) in
          let hi = Stdlib.min (base + runs) (lo + batch_size) in
          let t_batch = Clock.now_ns () in
          (* GC telemetry is sampled on the domain that runs the batch,
             outside the batch collector: gc.* rows are Timing kind and
             must never enter the deterministically-merged Engine
             section. *)
          let gc_probe = Ckpt_obs.Gc_telemetry.probe () in
          (* Substream derivation reads only the seed, never the
             generator position. *)
          let root = Rng.create ~seed in
          Metrics.with_collector mcols.(b) (fun () ->
              Span.with_ ~name:"pool.batch"
                ~args:
                  [ ("batch", string_of_int b); ("lo", string_of_int lo);
                    ("hi", string_of_int hi) ]
                (fun () ->
                  let acc = accs.(b) and next = ref lo in
                  sampler ~first:lo ~last:(hi - 1) root (fun x ->
                      let r = !next in
                      if r >= hi then invalid_arg "Parallel_exec: sampler reported too many runs";
                      Welford.add acc x;
                      store r x;
                      next := r + 1);
                  if !next < hi then invalid_arg "Parallel_exec: sampler reported too few runs";
                  Metrics.incr ~by:(hi - lo) m_runs;
                  Metrics.incr m_batches));
          Ckpt_obs.Gc_telemetry.sample gc_probe;
          busy_s.(participant) <- busy_s.(participant) +. Clock.elapsed_s t_batch;
          batches_done.(participant) <- batches_done.(participant) + 1));
  let round_s = Clock.elapsed_s t_round in
  (* Deterministic merge: batch collectors in batch-index order, into
     the collector that was current when the round started. *)
  Array.iter (Metrics.merge_into ~dst:parent) mcols;
  for p = 0 to size - 1 do
    let gauge suffix = Metrics.gauge ~kind:Timing (Printf.sprintf "pool.domain%d.%s" p suffix) in
    Metrics.set (gauge "batches") (float_of_int batches_done.(p));
    Metrics.set (gauge "busy_s") busy_s.(p);
    Metrics.set (gauge "queue_wait_s") (Float.max 0.0 (round_s -. busy_s.(p)));
    Metrics.set (gauge "utilization_pct")
      (if round_s > 0.0 then 100.0 *. busy_s.(p) /. round_s else 0.0)
  done;
  Array.fold_left Welford.merge (Welford.create ()) accs

let estimate ?domains ~runs ~seed sampler =
  check_runs runs;
  with_campaign_team ?domains ~largest_round:runs (fun team ->
      run_round team ~base:0 ~runs ~seed sampler)

let collect ?domains ~runs ~seed sampler =
  check_runs runs;
  let samples = Array.make runs 0.0 in
  let acc =
    with_campaign_team ?domains ~largest_round:runs (fun team ->
        run_round team ~store:(fun r x -> samples.(r) <- x) ~base:0 ~runs ~seed sampler)
  in
  (samples, acc)

let ci99_half_width acc =
  let lo, hi = Welford.confidence_interval acc ~level:0.99 in
  (hi -. lo) /. 2.0

let converged ~target_ci acc =
  Welford.count acc >= 2
  && ci99_half_width acc <= target_ci *. Float.abs (Welford.mean acc)

(* Per-round CI trajectory: a deterministic gauge (last value wins) plus
   an instant trace marker, so an adaptive campaign can be replayed from
   its artifacts. *)
let report_ci acc =
  if Welford.count acc >= 2 && not (Float.equal (Welford.mean acc) 0.0) then begin
    let rel = ci99_half_width acc /. Float.abs (Welford.mean acc) in
    Metrics.set g_ci rel;
    Span.instant "mc.ci"
      ~args:
        [ ("rel_half_width", Printf.sprintf "%.6g" rel);
          ("n", string_of_int (Welford.count acc)) ]
  end

(* Every round the campaign can run, as (base, runs), capped at
   [max_runs]. Each round doubles the campaign: the CI half-width
   shrinks as 1/sqrt(n), so geometric growth overshoots the target by at
   most sqrt(2) while keeping the number of rounds logarithmic. The
   schedule depends only on the inputs, and whether a round runs only on
   the (deterministic) estimates, never on the domain count. *)
let doubling_rounds ~runs ~max_runs =
  let rec grow total acc =
    if total >= max_runs then List.rev acc
    else
      let extra = Stdlib.min total (max_runs - total) in
      grow (total + extra) ((total, extra) :: acc)
  in
  grow runs [ (0, runs) ]

let estimate_adaptive ?domains ~runs ~max_runs ~target_ci ~seed sampler =
  check_runs runs;
  if max_runs < runs then invalid_arg "Parallel_exec: max_runs must be >= runs";
  if not (target_ci > 0.0) then invalid_arg "Parallel_exec: target_ci must be positive";
  let rounds = doubling_rounds ~runs ~max_runs in
  let largest_round = List.fold_left (fun m (_, n) -> Stdlib.max m n) 0 rounds in
  with_campaign_team ?domains ~largest_round (fun team ->
      let rec go acc = function
        | [] -> acc
        | (base, runs) :: later ->
            Metrics.incr m_rounds;
            let acc = Welford.merge acc (run_round team ~base ~runs ~seed sampler) in
            report_ci acc;
            if converged ~target_ci acc then acc else go acc later
      in
      go (Welford.create ()) rounds)
