module Task = Ckpt_dag.Task
module Metrics = Ckpt_obs.Metrics
module Failure_stream = Ckpt_failures.Failure_stream

(* Engine metrics, emitted into the caller's current collector: under
   the parallel pool each run's events land in its batch's collector,
   so the report-time totals are bit-identical for any domain count
   (see Ckpt_obs.Metrics on the merge order). *)
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

let m_failures_per_run =
  Metrics.histogram "sim.failures_per_run"
    ~buckets:[| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100. |]

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

(* Run a recovery of length [recovery]: failures restart downtime +
   recovery; returns the completion time. [on_failure] observes each
   failure instant (the chain executor tracks the last failure time for
   the policy context); [emit]/[on_phase] observe the event log, with
   [segment] the index the recovery will resume. *)
let run_recovery ?(on_failure = fun (_ : float) -> ()) ?(emit = no_emit)
    ?(on_phase = no_phase) ~max_failures ~counter ~segment:index ~downtime
    ~next_failure ~recovery start =
  let rec loop t =
    on_phase Recovery_phase t;
    let finish = t +. recovery in
    let fail = checked_next next_failure t in
    if fail >= finish then begin
      if recovery > 0.0 then
        emit { phase = Recovery_phase; segment = index; start = t; finish;
               interrupted = false };
      finish
    end
    else begin
      count_failure ~max_failures counter;
      Metrics.add m_lost_time (fail -. t);
      on_failure fail;
      emit { phase = Recovery_phase; segment = index; start = t; finish = fail;
             interrupted = true };
      on_phase Downtime_phase fail;
      emit { phase = Downtime_phase; segment = index; start = fail;
             finish = fail +. downtime; interrupted = false };
      loop (fail +. downtime)
    end
  in
  loop start

let run_segments_emitting ?(max_failures = default_max_failures) ?(on_phase = no_phase)
    ~emit ~downtime ~next_failure segments =
  if not (downtime >= 0.0) then invalid_arg "Sim_run.run_segments: negative downtime";
  let counter = ref 0 in
  let run_segment t (index, seg) =
    let recover fail_time =
      on_phase Downtime_phase fail_time;
      emit { phase = Downtime_phase; segment = index; start = fail_time;
             finish = fail_time +. downtime; interrupted = false };
      run_recovery ~emit ~on_phase ~max_failures ~counter ~segment:index ~downtime
        ~next_failure ~recovery:seg.recovery (fail_time +. downtime)
    in
    let rec attempt t =
      let work_end = t +. seg.work in
      let ckpt_end = work_end +. seg.checkpoint in
      (* Each phase makes its own failure query (as the chain executor
         always has), so phase-aware injectors see the right phase. The
         split is behaviour-preserving for the stream sources: a pending
         failure strictly later than the query time is stable across
         non-decreasing queries. *)
      let work_fail =
        if seg.work > 0.0 then begin
          on_phase Work_phase t;
          let fail = checked_next next_failure t in
          (* A failure at the exact work/checkpoint boundary interrupts
             the work phase — unless the whole attempt completes there
             (zero checkpoint), in which case completion wins. *)
          if fail < ckpt_end && fail <= work_end then Some fail else None
        end
        else None
      in
      match work_fail with
      | Some fail ->
          count_failure ~max_failures counter;
          Metrics.add m_lost_work (fail -. t);
          Metrics.add m_lost_time (fail -. t);
          emit { phase = Work_phase; segment = index; start = t; finish = fail;
                 interrupted = true };
          attempt (recover fail)
      | None ->
          if seg.work > 0.0 then
            emit { phase = Work_phase; segment = index; start = t; finish = work_end;
                   interrupted = false };
          if seg.checkpoint > 0.0 then begin
            on_phase Checkpoint_phase work_end;
            let fail = checked_next next_failure work_end in
            if fail < ckpt_end then begin
              count_failure ~max_failures counter;
              (* The checkpoint failed: the segment's work is lost in
                 full, but the checkpoint time elapsed is lost *time*,
                 not lost work. *)
              Metrics.add m_lost_work seg.work;
              Metrics.add m_lost_time (fail -. t);
              emit { phase = Checkpoint_phase; segment = index; start = work_end;
                     finish = fail; interrupted = true };
              attempt (recover fail)
            end
            else begin
              emit { phase = Checkpoint_phase; segment = index; start = work_end;
                     finish = ckpt_end; interrupted = false };
              Metrics.incr m_checkpoints;
              ckpt_end
            end
          end
          else begin
            Metrics.incr m_checkpoints;
            work_end
          end
    in
    attempt t
  in
  let makespan =
    List.fold_left run_segment 0.0 (List.mapi (fun i seg -> (i, seg)) segments)
  in
  Metrics.observe m_failures_per_run (float_of_int !counter);
  { makespan; failures = !counter }

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

(* --- The compiled executor ------------------------------------------ *)

type plan = { works : float array; checkpoints : float array; recoveries : float array }

let compile segments =
  let segs = Array.of_list segments in
  {
    works = Array.map (fun s -> s.work) segs;
    checkpoints = Array.map (fun s -> s.checkpoint) segs;
    recoveries = Array.map (fun s -> s.recovery) segs;
  }

(* The run's checkpoints reach sim.checkpoints in one addition, when the
   run ends or an exception leaves it. *)
let flush_checkpoints checkpoints = Metrics.incr ~by:checkpoints m_checkpoints

let query ~checkpoints stream time =
  let fail = Failure_stream.next_after stream time in
  if Float.is_nan fail then begin
    flush_checkpoints checkpoints;
    invalid_arg "Sim_run: next_failure returned NaN"
  end;
  fail

let count_plan_failure ~max_failures ~checkpoints failures =
  Metrics.incr m_failures;
  if failures > max_failures then begin
    flush_checkpoints checkpoints;
    raise (Livelock failures)
  end

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
let run_plan ?(max_failures = default_max_failures) ~downtime stream plan =
  if not (downtime >= 0.0) then invalid_arg "Sim_run.run_plan: negative downtime";
  let works = plan.works and ckpts = plan.checkpoints and recoveries = plan.recoveries in
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
        if not (!pending > t) then pending := query ~checkpoints:!checkpoints stream t;
        let fail = !pending in
        if fail < ckpt_end && fail <= work_end then begin
          failures := !failures + 1;
          count_plan_failure ~max_failures ~checkpoints:!checkpoints !failures;
          Metrics.add m_lost_work (fail -. t);
          Metrics.add m_lost_time (fail -. t);
          interrupted := true;
          fail_at := fail
        end
      end;
      if not !interrupted then begin
        if ckpt > 0.0 then begin
          if not (!pending > work_end) then
            pending := query ~checkpoints:!checkpoints stream work_end;
          let fail = !pending in
          if fail < ckpt_end then begin
            failures := !failures + 1;
            count_plan_failure ~max_failures ~checkpoints:!checkpoints !failures;
            Metrics.add m_lost_work work;
            Metrics.add m_lost_time (fail -. t);
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
          if not (!pending > r) then pending := query ~checkpoints:!checkpoints stream r;
          let fail = !pending in
          if fail >= finish then begin
            recovering := false;
            start := finish
          end
          else begin
            failures := !failures + 1;
            count_plan_failure ~max_failures ~checkpoints:!checkpoints !failures;
            Metrics.add m_lost_time (fail -. r);
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
       flush the count. *)
    checkpoints := !checkpoints + (!j - i - 1);
    now := !clock;
    next := !j
  done;
  flush_checkpoints !checkpoints;
  Metrics.observe m_failures_per_run (float_of_int !failures);
  { makespan = !now; failures = !failures }

type chain_context = {
  task_index : int;
  last_checkpoint : int;
  now : float;
  since_last_failure : float;
  work_since_checkpoint : float;
}

let run_chain_policy_stats ?(max_failures = default_max_failures) ?(emit = no_emit)
    ?(on_phase = no_phase) ~initial_recovery ~downtime ~decide ~next_failure tasks =
  if not (initial_recovery >= 0.0) then
    invalid_arg "Sim_run.run_chain_policy: negative initial recovery";
  if not (downtime >= 0.0) then invalid_arg "Sim_run.run_chain_policy: negative downtime";
  let counter = ref 0 in
  let n = Array.length tasks in
  let last_failure = ref 0.0 in
  let recovery_of last_ckpt =
    if last_ckpt < 0 then initial_recovery else tasks.(last_ckpt).Task.recovery_cost
  in
  (* [execute t last_ckpt i acc_work] runs tasks i.. with [acc_work]
     work accumulated since the checkpoint after task [last_ckpt].
     Tasks run back to back after a commit point (recovery end or
     checkpoint end), so the wall-clock elapsed since that point is
     acc_work plus the elapsed portion of the current phase. *)
  let rec execute t last_ckpt i acc_work =
    if i >= n then t
    else begin
      let task = tasks.(i) in
      let finish = t +. task.Task.work in
      on_phase Work_phase t;
      let fail = checked_next next_failure t in
      if fail < finish then begin
        emit { phase = Work_phase; segment = i; start = t; finish = fail;
               interrupted = true };
        (* Everything elapsed since the commit point is work, so lost
           work and lost time coincide here. *)
        let lost = acc_work +. (fail -. t) in
        rollback ~lost_work:lost ~lost_time:lost fail last_ckpt
      end
      else begin
        emit { phase = Work_phase; segment = i; start = t; finish; interrupted = false };
        let acc_work = acc_work +. task.Task.work in
        let ctx =
          {
            task_index = i;
            last_checkpoint = last_ckpt;
            now = finish;
            since_last_failure = finish -. !last_failure;
            work_since_checkpoint = acc_work;
          }
        in
        let wants_checkpoint = i = n - 1 || decide ctx in
        if not wants_checkpoint then execute finish last_ckpt (i + 1) acc_work
        else begin
          let ckpt_finish = finish +. task.Task.checkpoint_cost in
          if task.Task.checkpoint_cost > 0.0 then begin
            on_phase Checkpoint_phase finish;
            let fail = checked_next next_failure finish in
            if fail < ckpt_finish then begin
              emit { phase = Checkpoint_phase; segment = i; start = finish;
                     finish = fail; interrupted = true };
              (* Only the work since the last checkpoint is lost work;
                 the checkpoint time elapsed is lost time. *)
              rollback ~lost_work:acc_work ~lost_time:(acc_work +. (fail -. finish))
                fail last_ckpt
            end
            else begin
              emit { phase = Checkpoint_phase; segment = i; start = finish;
                     finish = ckpt_finish; interrupted = false };
              Metrics.incr m_checkpoints;
              execute ckpt_finish i (i + 1) 0.0
            end
          end
          else begin
            Metrics.incr m_checkpoints;
            execute ckpt_finish i (i + 1) 0.0
          end
        end
      end
    end
  and rollback ~lost_work ~lost_time fail_time last_ckpt =
    count_failure ~max_failures counter;
    Metrics.add m_lost_work lost_work;
    Metrics.add m_lost_time lost_time;
    last_failure := fail_time;
    (* Downtime/recovery events carry the index of the task execution
       resumes with, mirroring the segment executor's convention (the
       recovery re-establishes that task's starting state). *)
    let resume = last_ckpt + 1 in
    on_phase Downtime_phase fail_time;
    emit { phase = Downtime_phase; segment = resume; start = fail_time;
           finish = fail_time +. downtime; interrupted = false };
    let recovered =
      run_recovery
        ~on_failure:(fun fail -> last_failure := fail)
        ~emit ~on_phase ~max_failures ~counter ~segment:resume ~downtime ~next_failure
        ~recovery:(recovery_of last_ckpt) (fail_time +. downtime)
    in
    execute recovered last_ckpt resume 0.0
  in
  let makespan = execute 0.0 (-1) 0 0.0 in
  Metrics.observe m_failures_per_run (float_of_int !counter);
  { makespan; failures = !counter }

let run_chain_policy ?max_failures ?emit ?on_phase ~initial_recovery ~downtime ~decide
    ~next_failure tasks =
  (run_chain_policy_stats ?max_failures ?emit ?on_phase ~initial_recovery ~downtime
     ~decide ~next_failure tasks)
    .makespan
