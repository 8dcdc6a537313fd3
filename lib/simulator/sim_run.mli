(** Single-run execution of a checkpointed workload against a failure
    source, implementing exactly the Section 2 semantics:

    - work executes, then (optionally) a checkpoint is taken;
    - a failure during work or checkpoint loses the progress since the
      last checkpoint and triggers a downtime [D] followed by a recovery
      of the appropriate duration;
    - failures may strike during recovery (restarting downtime +
      recovery) but not during downtime;
    - after a successful recovery, the interrupted portion restarts from
      the last checkpointed state.

    {1 One hooked executor}

    {!run_segments_emitting} and its wrappers, and
    {!run_chain_policy_stats}, run on one per-phase loop over tasks: a
    work duration, a checkpoint cost, and the recovery that restores the
    state before the task. A segment list is one task per segment, with
    a checkpoint after each; a chain is {!chain_segments}, with a
    checkpoint after a task when [decide] asks for one and after the
    last task. A failure rolls the run back to the first task after the
    last checkpoint.

    The loop queries [next_failure] once per {e phase} (work,
    checkpoint, and each recovery attempt), with non-decreasing times —
    so a phase-aware injector ({!Ckpt_failures.Injector}) observes the
    phase about to run via the [on_phase] hook before each query.
    [next_failure t] must return a non-NaN time strictly later than [t]
    (NaN raises [Invalid_argument]: under float comparison NaN would
    silently read as "no failure ever"). The compiled executor
    ({!run_plan}) asks a base stream only when its clock reaches the
    pending failure, which gives the same answers (see {!run_plan}).

    {1 The boundary rule}

    A failure at the exact end of a task's work interrupts that task,
    unless the run takes a zero-length checkpoint at that instant. A
    failure at the exact end of a checkpoint or a recovery finds the
    phase complete; the next query looks strictly after that instant,
    so such a failure interrupts nothing and is not counted.

    {1 Loss accounting}

    Two loss metrics are kept, with the same attribution in the hooked
    and the compiled executor:
    - [sim.lost_work]: productive {e work} that must be re-executed — the
      work done since the last commit point, up to the failure, when a
      work or checkpoint phase is interrupted. Checkpoint and recovery
      time never count.
    - [sim.lost_time]: wall-clock wiped out by failures — the elapsed
      portion of every interrupted work/checkpoint/recovery window,
      measured from the last commit point. Downtime is excluded (it is
      [sim.failures * D] by construction). *)

type segment = {
  work : float;  (** Total work executed in the segment (>= 0). *)
  checkpoint : float;  (** Checkpoint cost C at segment end (>= 0). *)
  recovery : float;
      (** Recovery cost R to restore the state at the {e start} of this
          segment (the checkpoint taken at the end of the previous
          segment, or the initial-state recovery cost for the first
          segment). *)
}

val segment : work:float -> checkpoint:float -> recovery:float -> segment
(** Validated constructor; rejects negative and NaN durations. *)

exception Livelock of int
(** Raised when a single run absorbs more failures than its
    [max_failures] bound: the workload can never finish (e.g. a
    deterministic failure period shorter than a recovery), or the bound
    was set too low. Carries the failure count reached. *)

type run_stats = {
  makespan : float;
  failures : int;  (** Failures endured (work, checkpoint and recovery phases). *)
}

type phase =
  | Work_phase
  | Checkpoint_phase
  | Downtime_phase
  | Recovery_phase

type event = {
  phase : phase;
  segment : int;
      (** 0-based index of the segment (or chain task) being executed;
          downtime/recovery events carry the index execution resumes
          with. *)
  start : float;
  finish : float;  (** Truncated at the failure instant when interrupted. *)
  interrupted : bool;
}

val run_segments_emitting :
  ?max_failures:int ->
  ?on_phase:(phase -> float -> unit) ->
  emit:(event -> unit) ->
  downtime:float -> next_failure:(float -> float) -> segment list -> run_stats
(** The hooked loop with a checkpoint after every segment. [emit]
    observes every completed or interrupted phase in chronological order
    (the monitor hook of the scenario harness); [on_phase] is called
    with each phase about to execute and its start time, {e before}
    that phase's failure query. Zero-length work and checkpoint phases
    are skipped entirely (no hook, no query, no event); a zero-length
    recovery still makes its hook call and query, but emits no event.
    Raises {!Livelock} after [max_failures] failures
    (default 10,000,000). *)

val run_segments :
  ?max_failures:int ->
  downtime:float -> next_failure:(float -> float) -> segment list -> float
(** [run_segments ~downtime ~next_failure segments] executes the
    segments in order starting at time 0 and returns the makespan.
    [next_failure t] must return the absolute time of the first failure
    strictly after [t] (see {!Ckpt_failures.Failure_stream.next_after});
    queries are made with non-decreasing [t]. *)

val run_segments_traced :
  ?max_failures:int ->
  downtime:float -> next_failure:(float -> float) -> segment list ->
  run_stats * event list
(** {!run_segments_stats} plus the full event log of the run, in
    chronological order — the raw material for the ASCII timeline
    ({!Timeline}) and for failure-injection debugging. *)

val run_segments_stats :
  ?max_failures:int ->
  ?on_phase:(phase -> float -> unit) ->
  downtime:float -> next_failure:(float -> float) -> segment list -> run_stats
(** {!run_segments} plus the failure count, for validating the expected
    failure-count formula ({!Ckpt_core.Expected_time.expected_failures}). *)

(** {1 Compiled plans}

    The hook-free executor the Monte Carlo estimators run: a segment list
    compiled once per campaign, then executed once per run with no
    allocation per segment. *)

type plan
(** A segment list laid out as three float arrays: work, checkpoint and
    recovery durations. *)

val compile : segment list -> plan
(** [compile segments] lays [segments] out as a plan. Like the other
    executors it takes them as given: {!segment} is where durations are
    validated. *)

type tally
(** The [sim.*] metrics of any number of {!run_plan} runs, kept by the
    caller instead of emitted per failure: the [sim.failures] and
    [sim.checkpoints] counts, the [sim.lost_work] and [sim.lost_time]
    sums, and the [sim.failures_per_run] bucket counts, total and
    observation count. Not safe to share between domains. *)

val tally : unit -> tally
(** An empty tally: zero counts, sums at [0.0]. *)

val flush : tally -> unit
(** [flush t] adds [t] to the calling domain's current collector in one
    step. The two sums are added as they stand; they accumulated from
    [0.0] in the hooked executor's per-failure order, so runs tallied
    into one tally and flushed once into a fresh collector leave the
    same bits as the same runs emitting per failure into it (the Monte
    Carlo pool gives every batch a fresh collector). Flushing a tally
    per run does not: [S +. (a +. b)] is not [(S +. a) +. b]. *)

val run_plan :
  ?max_failures:int ->
  downtime:float -> tally -> Ckpt_failures.Failure_stream.t -> plan -> run_stats
(** [run_plan ~downtime tally stream (compile segments)] equals
    [run_segments_stats ~downtime
    ~next_failure:(Failure_stream.next_after stream) segments] bit for
    bit: makespan, failure count, {!Livelock} at the same count, and
    every [sim.*] metric once [tally] is flushed. It keeps the stream's
    pending failure time and calls
    {!Ckpt_failures.Failure_stream.next_after} only when the run's clock
    reaches it; the streams' query stability makes the skipped queries
    exact.

    It makes no {!Ckpt_obs.Metrics} call: it writes into [tally].
    [sim.lost_work] and [sim.lost_time] are added per failure in the
    hooked executor's order; the run's failure and checkpoint counts are
    added once, when it ends, also when {!Livelock} or the NaN check
    ends it early; a run that ends normally is also counted in
    [sim.failures_per_run].

    Between failures it walks segments in a loop with no call in it,
    which keeps the clock in a register. The loop commits a segment
    whose end [(t +. w) +. c] is strictly before the pending failure:
    every phase of it starts before that failure, so the per-phase code
    would make no query, see no failure and commit the same two
    additions (with [c] = ±0, its [work_end]: [t >= +0] keeps [t +. w]
    from being -0). Any other segment (a failure, a boundary case, NaN
    or infinite durations, a negative checkpoint in a record built
    without {!segment}) and the first one, which makes the first query,
    run the per-phase code; the walked checkpoints are counted before
    it runs.

    It has no [emit]/[on_phase] hooks and takes a base stream, not a
    [next_failure] closure: injectors, scenarios, timelines and
    phase-aware sources stay on {!run_segments_emitting}, which queries
    at every phase. *)

val chain_segments : initial_recovery:float -> Ckpt_dag.Task.t array -> segment array
(** [chain_segments ~initial_recovery tasks] is the chain as the
    executor runs it: task [i]'s work and checkpoint cost, and the
    recovery that restores the state before it ([initial_recovery] for
    task 0, then task [i - 1]'s recovery cost). Raises
    [Invalid_argument] on a negative or NaN [initial_recovery]. *)

type chain_context = {
  task_index : int;  (** Index of the task that just completed. *)
  last_checkpoint : int;
      (** Index of the last successfully checkpointed task, or -1 if no
          checkpoint has completed yet. *)
  now : float;  (** Current absolute simulated time. *)
  since_last_failure : float;
      (** Time elapsed since the last failure (or since 0 if none),
          i.e. the processor-age information a non-memoryless policy
          needs (Section 6). *)
  work_since_checkpoint : float;
      (** Work accumulated since the last successful checkpoint,
          including the task that just completed. *)
}

val run_chain_policy_stats :
  ?max_failures:int ->
  ?emit:(event -> unit) ->
  ?on_phase:(phase -> float -> unit) ->
  initial_recovery:float ->
  downtime:float ->
  decide:(chain_context -> bool) ->
  next_failure:(float -> float) ->
  Ckpt_dag.Task.t array ->
  run_stats
(** Execute a linear chain, [chain_segments ~initial_recovery tasks],
    on the hooked loop. After each completed task but the last, the
    [decide] callback chooses whether to checkpoint (at that task's
    [checkpoint_cost]). A failure rolls back to the last checkpointed
    task (recovery at that task's [recovery_cost], or
    [initial_recovery] when no checkpoint was taken yet) and the tasks
    after it re-execute, [decide] being consulted anew. A checkpoint is
    always taken after the final task, closing the run, as in the
    paper's model. [emit] and [on_phase] observe the run as in
    {!run_segments_emitting}, with [event.segment] carrying the task
    index. Raises {!Livelock} after [max_failures] failures
    (default 10,000,000). *)
