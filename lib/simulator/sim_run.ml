module Task = Ckpt_dag.Task
module Metrics = Ckpt_obs.Metrics
module Failure_stream = Ckpt_failures.Failure_stream

(* Engine metrics, emitted into the caller's current collector by the
   hooked executor and by [flush]: under the parallel pool each batch's
   runs land in its batch's collector, so the report-time totals are
   bit-identical for any domain count (see Ckpt_obs.Metrics on the merge
   order). *)
let m_failures = Metrics.counter "sim.failures"
let m_checkpoints = Metrics.counter "sim.checkpoints"

(* Productive work re-executed because of failures: the work elapsed in
   an interrupted work phase, plus the whole segment's work when the
   checkpoint that would have made it durable is interrupted. Checkpoint
   and recovery time are not work; they land in sim.lost_time. *)
let m_lost_work = Metrics.sum "sim.lost_work"

(* Wall-clock wiped out by failures: the elapsed portion of every
   interrupted work/checkpoint/recovery window, measured from the last
   commit point (attempt or recovery start). Downtime windows are not
   included — they are sim.failures * D by construction. *)
let m_lost_time = Metrics.sum "sim.lost_time"

(* A run with [f] failures lands in the first bucket with [f <= bound],
   else in the overflow bucket. *)
let failures_per_run_bounds = [| 0; 1; 2; 5; 10; 20; 50; 100 |]

let m_failures_per_run =
  Metrics.histogram "sim.failures_per_run"
    ~buckets:(Array.map float_of_int failures_per_run_bounds)

type segment = { work : float; checkpoint : float; recovery : float }

let segment ~work ~checkpoint ~recovery =
  (* [not (x >= 0)] also rejects NaN, which [x < 0] would admit. *)
  if not (work >= 0.0 && checkpoint >= 0.0 && recovery >= 0.0) then
    invalid_arg "Sim_run.segment: durations must be non-negative";
  { work; checkpoint; recovery }

exception Livelock of int

let default_max_failures = 10_000_000

let count_failure ~max_failures counter =
  incr counter;
  Metrics.incr m_failures;
  if !counter > max_failures then raise (Livelock !counter)

type run_stats = { makespan : float; failures : int }

type phase = Work_phase | Checkpoint_phase | Downtime_phase | Recovery_phase

type event = {
  phase : phase;
  segment : int;
  start : float;
  finish : float;
  interrupted : bool;
}

let no_emit (_ : event) = ()
let no_phase (_ : phase) (_ : float) = ()

(* A NaN failure time would silently read as "no failure" under every
   [<] comparison below, turning a broken injector into an invisible
   optimistic engine; fail fast instead. *)
let checked_next next_failure t =
  let fail = next_failure t in
  if Float.is_nan fail then
    invalid_arg "Sim_run: next_failure returned NaN";
  fail

type chain_context = {
  task_index : int;
  last_checkpoint : int;
  now : float;
  since_last_failure : float;
  work_since_checkpoint : float;
}

(* The hooked executor, for segment lists and chains alike. Task [i]
   runs its work, then a checkpoint when the run takes one there: after
   every task without [decide], else when [decide] asks for one, and
   always after the last task. A failure rolls the run back to the
   start of task [first], the first task after the last checkpoint,
   whose [recovery] restores that state. [t0] is the commit point (time
   0, a recovery's end or a checkpoint's end) and [acc] the work done
   since it, before task [i] starts at [t]. Each work and checkpoint
   phase of positive length and each recovery makes one failure query;
   zero-length work and checkpoint phases are skipped. *)
let run_hooked ?(max_failures = default_max_failures) ?(emit = no_emit)
    ?(on_phase = no_phase) ?decide ~downtime ~next_failure (tasks : segment array) =
  if not (downtime >= 0.0) then invalid_arg "Sim_run: negative downtime";
  let n = Array.length tasks in
  let failures = ref 0 and last_failure = ref 0.0 in
  let record_failure fail =
    count_failure ~max_failures failures;
    last_failure := fail
  in
  let rec run_task first t0 i t acc =
    if i >= n then t
    else begin
      let s = tasks.(i) in
      let work_end = t +. s.work in
      let ckpt_end = work_end +. s.checkpoint in
      let fail =
        if s.work > 0.0 then begin
          on_phase Work_phase t;
          checked_next next_failure t
        end
        else infinity
      in
      (* A failure at or before the end of the work interrupts it,
         unless the run commits at that instant: a zero-length
         checkpoint after the task. [decide] is not asked when the
         failure interrupts the work whatever it answers. *)
      let strikes_work = s.work > 0.0 && fail <= work_end in
      if strikes_work && fail < ckpt_end then work_failed first i t acc fail
      else begin
        let acc_done = acc +. s.work in
        let checkpoint =
          i = n - 1
          ||
          match decide with
          | None -> true
          | Some decide ->
              decide
                { task_index = i; last_checkpoint = first - 1; now = work_end;
                  since_last_failure = work_end -. !last_failure;
                  work_since_checkpoint = acc_done }
        in
        if strikes_work && not checkpoint then work_failed first i t acc fail
        else begin
          if s.work > 0.0 then
            emit { phase = Work_phase; segment = i; start = t; finish = work_end;
                   interrupted = false };
          if not checkpoint then run_task first t0 (i + 1) work_end acc_done
          else if s.checkpoint > 0.0 then begin
            on_phase Checkpoint_phase work_end;
            let fail = checked_next next_failure work_end in
            if fail < ckpt_end then begin
              (* The work since the commit point is lost; the checkpoint
                 time elapsed is lost time, not lost work. *)
              record_failure fail;
              Metrics.add m_lost_work acc_done;
              Metrics.add m_lost_time (fail -. t0);
              emit { phase = Checkpoint_phase; segment = i; start = work_end;
                     finish = fail; interrupted = true };
              recover first fail
            end
            else begin
              emit { phase = Checkpoint_phase; segment = i; start = work_end;
                     finish = ckpt_end; interrupted = false };
              Metrics.incr m_checkpoints;
              run_task (i + 1) ckpt_end (i + 1) ckpt_end 0.0
            end
          end
          else begin
            Metrics.incr m_checkpoints;
            run_task (i + 1) work_end (i + 1) work_end 0.0
          end
        end
      end
    end
  and work_failed first i t acc fail =
    (* Everything elapsed since the commit point is work. *)
    let lost = acc +. (fail -. t) in
    record_failure fail;
    Metrics.add m_lost_work lost;
    Metrics.add m_lost_time lost;
    emit { phase = Work_phase; segment = i; start = t; finish = fail; interrupted = true };
    recover first fail
  (* Downtime, then recovery attempts until one completes, restoring the
     state before task [first]; a failure during a recovery restarts
     both. *)
  and recover first fail =
    on_phase Downtime_phase fail;
    let t = fail +. downtime in
    emit { phase = Downtime_phase; segment = first; start = fail; finish = t;
           interrupted = false };
    on_phase Recovery_phase t;
    let recovery = tasks.(first).recovery in
    let finish = t +. recovery in
    let fail = checked_next next_failure t in
    if fail >= finish then begin
      if recovery > 0.0 then
        emit { phase = Recovery_phase; segment = first; start = t; finish;
               interrupted = false };
      run_task first finish first finish 0.0
    end
    else begin
      record_failure fail;
      Metrics.add m_lost_time (fail -. t);
      emit { phase = Recovery_phase; segment = first; start = t; finish = fail;
             interrupted = true };
      recover first fail
    end
  in
  let makespan = run_task 0 0.0 0 0.0 0.0 in
  Metrics.observe m_failures_per_run (float_of_int !failures);
  { makespan; failures = !failures }

let run_segments_emitting ?max_failures ?on_phase ~emit ~downtime ~next_failure segments =
  run_hooked ?max_failures ~emit ?on_phase ~downtime ~next_failure (Array.of_list segments)

let run_segments_stats ?max_failures ?on_phase ~downtime ~next_failure segments =
  run_segments_emitting ?max_failures ?on_phase ~emit:no_emit ~downtime ~next_failure
    segments

let run_segments ?max_failures ~downtime ~next_failure segments =
  (run_segments_stats ?max_failures ~downtime ~next_failure segments).makespan

let run_segments_traced ?max_failures ~downtime ~next_failure segments =
  let events = ref [] in
  let emit e = events := e :: !events in
  let stats = run_segments_emitting ?max_failures ~emit ~downtime ~next_failure segments in
  (stats, List.rev !events)

let chain_segments ~initial_recovery tasks =
  Array.mapi
    (fun i (task : Task.t) ->
      segment ~work:task.work ~checkpoint:task.checkpoint_cost
        ~recovery:(if i = 0 then initial_recovery else tasks.(i - 1).Task.recovery_cost))
    tasks

let run_chain_policy_stats ?max_failures ?emit ?on_phase ~initial_recovery ~downtime ~decide
    ~next_failure tasks =
  run_hooked ?max_failures ?emit ?on_phase ~decide ~downtime ~next_failure
    (chain_segments ~initial_recovery tasks)

(* --- The compiled executor ------------------------------------------ *)

type plan = { works : float array; checkpoints : float array; recoveries : float array }

let compile segments =
  let segs = Array.of_list segments in
  {
    works = Array.map (fun s -> s.work) segs;
    checkpoints = Array.map (fun s -> s.checkpoint) segs;
    recoveries = Array.map (fun s -> s.recovery) segs;
  }

(* The losses are a flat float record, so adding to them boxes nothing. *)
type losses = { mutable lost_work : float; mutable lost_time : float }

type tally = {
  mutable failures : int;
  mutable checkpoints : int;
  losses : losses;
  per_run : int array;  (* sim.failures_per_run's bucket counts *)
  mutable runs : int;  (* its observations: the runs that finished *)
  mutable run_failures : int;  (* their failures: its total *)
}

let tally () =
  {
    failures = 0;
    checkpoints = 0;
    losses = { lost_work = 0.0; lost_time = 0.0 };
    per_run = Array.make (Array.length failures_per_run_bounds + 1) 0;
    runs = 0;
    run_failures = 0;
  }

(* The histogram's total is a sum of failure counts: as a float summed
   run by run from 0.0 it is exact below 2^53, so it equals the integer
   sum converted once. *)
let flush t =
  Metrics.incr ~by:t.failures m_failures;
  Metrics.incr ~by:t.checkpoints m_checkpoints;
  Metrics.add m_lost_work t.losses.lost_work;
  Metrics.add m_lost_time t.losses.lost_time;
  Metrics.observe_counts m_failures_per_run ~counts:t.per_run
    ~total:(float_of_int t.run_failures) ~observations:t.runs

(* A run's failure and checkpoint counts reach the tally in one addition,
   when the run ends or an exception leaves it. *)
let settle tally ~failures ~checkpoints =
  tally.failures <- tally.failures + failures;
  tally.checkpoints <- tally.checkpoints + checkpoints

let finish_run tally ~failures ~checkpoints =
  settle tally ~failures ~checkpoints;
  let b = ref 0 in
  while !b < Array.length failures_per_run_bounds && failures > failures_per_run_bounds.(!b) do
    incr b
  done;
  tally.per_run.(!b) <- tally.per_run.(!b) + 1;
  tally.runs <- tally.runs + 1;
  tally.run_failures <- tally.run_failures + failures

let query tally ~failures ~checkpoints stream time =
  let fail = Failure_stream.next_after stream time in
  if Float.is_nan fail then begin
    settle tally ~failures ~checkpoints;
    invalid_arg "Sim_run: next_failure returned NaN"
  end;
  fail

let livelock tally ~failures ~checkpoints =
  settle tally ~failures ~checkpoints;
  raise (Livelock failures)

(* [run_segments_emitting] with no hooks, as one loop over unboxed
   locals: no closure, event or boxed float per segment. [pending] is
   the stream's answer to the last query made. By the streams' query
   stability it is also their answer to any later query before it, so
   a phase asks the stream only when its start time has reached
   [pending]; starting at [neg_infinity] makes the first phase ask.

   Each segment that the per-phase code commits is followed by a walk:
   a loop with no call in it, so that the clock stays in a register,
   that commits the segments after it which end before [pending]. The
   first segment that does not goes back to the per-phase code (the
   exactness argument is in the interface). The walk also stops at a
   negative [c], where the per-phase code would commit [work_end]
   instead. *)
let run_plan ?(max_failures = default_max_failures) ~downtime tally stream plan =
  if not (downtime >= 0.0) then invalid_arg "Sim_run.run_plan: negative downtime";
  let works = plan.works and ckpts = plan.checkpoints and recoveries = plan.recoveries in
  let losses = tally.losses in
  let n = Array.length works in
  let pending = ref neg_infinity in
  let now = ref 0.0 in
  let failures = ref 0 and checkpoints = ref 0 in
  let next = ref 0 in
  while !next < n do
    let i = !next in
    let work = works.(i) and ckpt = ckpts.(i) and recovery = recoveries.(i) in
    let start = ref !now in
    let committed = ref false in
    while not !committed do
      let t = !start in
      let work_end = t +. work in
      let ckpt_end = work_end +. ckpt in
      let interrupted = ref false and fail_at = ref 0.0 in
      if work > 0.0 then begin
        if not (!pending > t) then
          pending := query tally ~failures:!failures ~checkpoints:!checkpoints stream t;
        let fail = !pending in
        if fail < ckpt_end && fail <= work_end then begin
          failures := !failures + 1;
          if !failures > max_failures then
            livelock tally ~failures:!failures ~checkpoints:!checkpoints;
          losses.lost_work <- losses.lost_work +. (fail -. t);
          losses.lost_time <- losses.lost_time +. (fail -. t);
          interrupted := true;
          fail_at := fail
        end
      end;
      if not !interrupted then begin
        if ckpt > 0.0 then begin
          if not (!pending > work_end) then
            pending := query tally ~failures:!failures ~checkpoints:!checkpoints stream work_end;
          let fail = !pending in
          if fail < ckpt_end then begin
            failures := !failures + 1;
            if !failures > max_failures then
              livelock tally ~failures:!failures ~checkpoints:!checkpoints;
            losses.lost_work <- losses.lost_work +. work;
            losses.lost_time <- losses.lost_time +. (fail -. t);
            interrupted := true;
            fail_at := fail
          end
          else begin
            checkpoints := !checkpoints + 1;
            now := ckpt_end;
            committed := true
          end
        end
        else begin
          checkpoints := !checkpoints + 1;
          now := work_end;
          committed := true
        end
      end;
      if !interrupted then begin
        (* Downtime, then recovery attempts until one completes; a
           recovery always makes its query, even a zero-length one. *)
        let resume = ref (!fail_at +. downtime) in
        let recovering = ref true in
        while !recovering do
          let r = !resume in
          let finish = r +. recovery in
          if not (!pending > r) then
            pending := query tally ~failures:!failures ~checkpoints:!checkpoints stream r;
          let fail = !pending in
          if fail >= finish then begin
            recovering := false;
            start := finish
          end
          else begin
            failures := !failures + 1;
            if !failures > max_failures then
              livelock tally ~failures:!failures ~checkpoints:!checkpoints;
            losses.lost_time <- losses.lost_time +. (fail -. r);
            resume := fail +. downtime
          end
        done
      end
    done;
    (* The walk. [compile] gives the arrays one length, so
       [!j < !stop <= n] bounds both. *)
    let p = !pending and clock = ref !now and j = ref (i + 1) and stop = ref n in
    while !j < !stop do
      let c = Array.unsafe_get ckpts !j in
      let finish = (!clock +. Array.unsafe_get works !j) +. c in
      if finish < p && c >= 0.0 then begin
        clock := finish;
        incr j
      end
      else stop := !j
    done;
    (* Counted before segment [!j] runs: its Livelock and NaN exits
       settle the count. *)
    checkpoints := !checkpoints + (!j - i - 1);
    now := !clock;
    next := !j
  done;
  finish_run tally ~failures:!failures ~checkpoints:!checkpoints;
  { makespan = !now; failures = !failures }
