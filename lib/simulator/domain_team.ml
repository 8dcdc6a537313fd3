(* Persistent team of worker domains for deterministic data-parallel
   rounds (see the mli for the determinism contract). A team pays
   Domain.spawn once: workers park on a condition variable between
   rounds and are woken by a generation bump, so the Monte-Carlo pool's
   doubling rounds and a DP solver's one-round-per-row sweeps cost two
   mutex handshakes per round, not thread creation. *)

type t = {
  domains : int;  (* total participants, including the calling domain *)
  mutable workers : unit Domain.t array;  (* the domains-1 spawned ones *)
  mutex : Mutex.t;
  wake : Condition.t;  (* workers park here between rounds *)
  round_done : Condition.t;  (* master parks here while workers drain *)
  mutable generation : int;  (* bumped per round; workers key off it *)
  mutable live : bool;
  mutable job : (participant:int -> int -> unit) option;
  mutable tasks : int;
  next : int Atomic.t;  (* task claim cursor for the current round *)
  cancelled : bool Atomic.t;  (* a task raised: stop claiming *)
  mutable failure : exn option;  (* first exception, re-raised by run *)
  mutable finished : int;  (* workers done with the current round *)
}

let default_domains () = Stdlib.min 8 (Domain.recommended_domain_count ())
let size t = t.domains

(* Claim-execute loop shared by master and workers. The claim order is
   racy by design; determinism comes from tasks writing disjoint state
   (the contract in the mli), never from claim order. *)
let claim_loop t fn tasks participant =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= tasks || Atomic.get t.cancelled then continue := false
    else
      match fn ~participant i with
      | () -> ()
      | exception e ->
          Atomic.set t.cancelled true;
          Mutex.lock t.mutex;
          (match t.failure with None -> t.failure <- Some e | Some _ -> ());
          Mutex.unlock t.mutex;
          continue := false
  done

let rec worker_loop t participant last_gen =
  Mutex.lock t.mutex;
  while t.live && t.generation = last_gen do
    Condition.wait t.wake t.mutex
  done;
  let live = t.live in
  let gen = t.generation in
  let job = t.job in
  let tasks = t.tasks in
  Mutex.unlock t.mutex;
  if live then begin
    (match job with Some fn -> claim_loop t fn tasks participant | None -> ());
    Mutex.lock t.mutex;
    t.finished <- t.finished + 1;
    if t.finished = Array.length t.workers then Condition.broadcast t.round_done;
    Mutex.unlock t.mutex;
    worker_loop t participant gen
  end

let create ?domains () =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Domain_team.create: domains must be >= 1";
  let t =
    {
      domains;
      workers = [||];
      mutex = Mutex.create ();
      wake = Condition.create ();
      round_done = Condition.create ();
      generation = 0;
      live = true;
      job = None;
      tasks = 0;
      next = Atomic.make 0;
      cancelled = Atomic.make false;
      failure = None;
      finished = 0;
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let run t ~tasks fn =
  if tasks < 0 then invalid_arg "Domain_team.run: negative task count";
  if tasks > 0 then begin
    Mutex.lock t.mutex;
    if not t.live then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_team.run: team already shut down"
    end;
    t.job <- Some fn;
    t.tasks <- tasks;
    t.failure <- None;
    t.finished <- 0;
    Atomic.set t.next 0;
    Atomic.set t.cancelled false;
    t.generation <- t.generation + 1;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    (* The master participates: with domains = 1 this is the whole
       round and the code path is purely sequential. *)
    claim_loop t fn tasks 0;
    Mutex.lock t.mutex;
    while t.finished < Array.length t.workers do
      Condition.wait t.round_done t.mutex
    done;
    t.job <- None;
    let failure = t.failure in
    Mutex.unlock t.mutex;
    match failure with None -> () | Some e -> raise e
  end

let shutdown t =
  Mutex.lock t.mutex;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  if was_live then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
