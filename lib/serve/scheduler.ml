(* Bounded scheduler: admission control, a shedding wait queue, completion
   tracking, and the worker domains that run the jobs.

   Jobs run on up to [workers] domains at once, spawned on demand and
   joined by [shutdown].  A job counted as running is handed to an idle
   worker under [t.lock], so [running <= workers] holds and every job that
   waits sits in [queue].  Excess submissions wait in that bounded FIFO
   queue; when the queue is full, or the EWMA-estimated queue wait already
   exceeds the job's deadline, the submission is *shed* with a
   [retry_after_ms] estimate instead of being queued to fail.  A queued job
   whose deadline passes while it waits is evicted promptly — the queue is
   swept at every submission and completion and by a lazy background
   sweeper tick, so eviction never waits for a running slot to free — its
   ticket resolves to [Error (Evicted _)] without ever running.

   Tickets and the scheduler state are the only shared state, each behind
   its own mutex.  Mutex/Condition work across domains and systhreads
   alike, so a connection thread awaiting a ticket wakes correctly when a
   worker domain resolves it. *)

module Metrics = Symref_obs.Metrics

type 'a ticket = {
  t_lock : Mutex.t;
  t_done : Condition.t;
  mutable value : ('a, exn) result option;
}

exception Evicted of { retry_after_ms : float }

type entry = {
  e_deadline : float option;
  e_run : unit -> unit; (* run the job, free its slot, resolve its ticket *)
  e_evict : float -> unit; (* resolve the ticket with [Evicted] *)
}

type t = {
  lock : Mutex.t;
  changed : Condition.t; (* running/queue shrank *)
  work : Condition.t; (* a job was handed over, or the workers must exit *)
  workers : int;
  queue_cap : int;
  mutable running : int; (* jobs handed over and not finished *)
  handed : (unit -> unit) Queue.t; (* running jobs no worker has taken yet *)
  queue : entry Queue.t;
  mutable accepting : bool;
  (* EWMA of job service time (ms): the admission estimator.  Seeded
     pessimistically enough that an empty scheduler never sheds. *)
  mutable ewma_ms : float;
  (* Deadline sweeper: evicts expired queued jobs on a tick, so eviction
     never depends on a running slot freeing up.  Spawned lazily by the
     first deadline-carrying job that queues. *)
  mutable sweeper : Thread.t option;
  mutable sweeper_stop : bool;
  mutable domains : unit Domain.t list; (* one per job running at the peak *)
  mutable closing : bool; (* idle workers exit *)
}

type 'a submission =
  | Admitted of 'a ticket
  | Shed of { retry_after_ms : float }
  | Stopped

(* Keeps every scheduler far below OCaml 5.1's limit of 128 domains per
   process. *)
let max_workers = 64

let resolve_workers n =
  if n = 0 then
    Int.min max_workers (Int.max 1 (Domain.recommended_domain_count () - 1))
  else if n < 1 || n > max_workers then
    invalid_arg
      (Printf.sprintf "workers: %d is outside 1..%d (0 = auto)" n max_workers)
  else n

let create ?(queue = 64) ?(workers = 0) () =
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    work = Condition.create ();
    workers = resolve_workers workers;
    queue_cap = Int.max 0 queue;
    running = 0;
    handed = Queue.create ();
    queue = Queue.create ();
    accepting = true;
    ewma_ms = 50.;
    sweeper = None;
    sweeper_stop = false;
    domains = [];
    closing = false;
  }

(* A worker domain: take handed-over jobs until [shutdown].  Idle workers
   block on [work]; they do not spin. *)
let worker_loop t () =
  Mutex.lock t.lock;
  let rec next () =
    match Queue.take_opt t.handed with
    | Some run ->
        Mutex.unlock t.lock;
        run ();
        Mutex.lock t.lock;
        next ()
    | None when t.closing -> Mutex.unlock t.lock
    | None ->
        Condition.wait t.work t.lock;
        next ()
  in
  next ()

(* [t.lock] held: count [run] as running and hand it to a worker, spawning
   one when every worker alive already has a running job. *)
let start_locked t run =
  if List.length t.domains <= t.running then
    t.domains <- Domain.spawn (worker_loop t) :: t.domains;
  t.running <- t.running + 1;
  Queue.add run t.handed;
  Condition.signal t.work

(* The estimated wait (ms) before a submission arriving *now* would start:
   everything already queued, plus itself, drained at one EWMA service time
   per worker.  Also the [retry_after_ms] a shed job is told — by the time
   it retries the backlog it saw has (in estimate) drained. *)
let estimate_locked t =
  t.ewma_ms *. float_of_int (Queue.length t.queue + 1) /. float_of_int t.workers

let resolve ticket v =
  Mutex.lock ticket.t_lock;
  ticket.value <- Some v;
  Condition.broadcast ticket.t_done;
  Mutex.unlock ticket.t_lock

(* Resolve every queued entry whose deadline has already passed ([t.lock]
   held) — whether or not any slot is free, so a client blocked in [await]
   learns its fate at the deadline, not when a long job eventually
   finishes.  Evictions count only in [serve.evicted_jobs]:
   [serve.shed_jobs] is the admission-shed path, and keeping the two
   disjoint keeps them additive with [serve.jobs_rejected].  Returns how
   many entries were evicted so callers can wake waiters. *)
let evict_expired_locked t =
  if Queue.is_empty t.queue then 0
  else begin
    let now = Unix.gettimeofday () in
    let expired e =
      match e.e_deadline with Some d -> now >= d | None -> false
    in
    let keep = Queue.create () in
    let dead = ref [] in
    Queue.iter
      (fun e -> if expired e then dead := e :: !dead else Queue.add e keep)
      t.queue;
    match !dead with
    | [] -> 0
    | dead ->
        Queue.clear t.queue;
        Queue.transfer keep t.queue;
        List.iter
          (fun e ->
            Metrics.incr Metrics.serve_evicted_jobs;
            e.e_evict (estimate_locked t))
          (List.rev dead);
        List.length dead
  end

(* The sweeper thread: a coarse tick is enough — eviction precision only
   has to beat the client's own patience, not the EWMA. *)
let sweeper_loop t () =
  let rec loop () =
    Mutex.lock t.lock;
    let stop = t.sweeper_stop in
    if (not stop) && evict_expired_locked t > 0 then
      Condition.broadcast t.changed;
    Mutex.unlock t.lock;
    if not stop then begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let finish t dur_ms =
  Mutex.lock t.lock;
  t.running <- t.running - 1;
  (* alpha = 0.2: reactive enough to track a load shift within a few jobs,
     smooth enough that one outlier doesn't flap the admission estimate. *)
  t.ewma_ms <- (0.8 *. t.ewma_ms) +. (0.2 *. dur_ms);
  (* Start queued jobs while slots are free, evicting the ones whose
     deadline already passed. *)
  ignore (evict_expired_locked t : int);
  let rec promote () =
    if t.running < t.workers then
      match Queue.take_opt t.queue with
      | None -> ()
      | Some e ->
          start_locked t e.e_run;
          promote ()
  in
  promote ();
  Condition.broadcast t.changed;
  Mutex.unlock t.lock

let submit ?deadline t f =
  let ticket =
    { t_lock = Mutex.create (); t_done = Condition.create (); value = None }
  in
  (* The slot is freed before the ticket resolves: a client that sends its
     next job as soon as it reads this reply must find the slot free. *)
  let run () =
    let t0 = Unix.gettimeofday () in
    let v = try Ok (f ()) with e -> Error e in
    finish t ((Unix.gettimeofday () -. t0) *. 1000.);
    resolve ticket v
  in
  Mutex.lock t.lock;
  (* Each submission also sweeps the queue: with every slot pinned by a
     long job, expired entries must still resolve without waiting for a
     completion to promote the queue. *)
  if evict_expired_locked t > 0 then Condition.broadcast t.changed;
  if not t.accepting then begin
    Mutex.unlock t.lock;
    Metrics.incr Metrics.serve_jobs_rejected;
    Stopped
  end
  else if t.running < t.workers then begin
    (* A failed spawn (the runtime's domain limit) changes nothing: release
       the lock and let the caller see the exception. *)
    (try start_locked t run
     with e ->
       Mutex.unlock t.lock;
       raise e);
    Mutex.unlock t.lock;
    Metrics.incr Metrics.serve_jobs_submitted;
    Admitted ticket
  end
  else begin
    let est = estimate_locked t in
    let queue_full = Queue.length t.queue >= t.queue_cap in
    let hopeless =
      match deadline with
      | Some d -> Unix.gettimeofday () +. (est /. 1000.) >= d
      | None -> false
    in
    if queue_full || hopeless then begin
      Mutex.unlock t.lock;
      Metrics.incr Metrics.serve_jobs_rejected;
      Metrics.incr Metrics.serve_shed_jobs;
      Shed { retry_after_ms = est }
    end
    else begin
      Queue.add
        {
          e_deadline = deadline;
          e_run = run;
          e_evict =
            (fun retry_after_ms ->
              resolve ticket (Error (Evicted { retry_after_ms })));
        }
        t.queue;
      (* The first deadline-carrying entry starts the sweeper: schedulers
         that never queue deadlines never pay for the thread. *)
      if deadline <> None && t.sweeper = None && not t.sweeper_stop then
        t.sweeper <- Some (Thread.create (sweeper_loop t) ());
      Mutex.unlock t.lock;
      Metrics.incr Metrics.serve_jobs_submitted;
      Admitted ticket
    end
  end

let await ticket =
  Mutex.lock ticket.t_lock;
  let rec wait () =
    match ticket.value with
    | Some v -> v
    | None ->
        Condition.wait ticket.t_done ticket.t_lock;
        wait ()
  in
  let v = wait () in
  Mutex.unlock ticket.t_lock;
  v

let peek ticket =
  Mutex.lock ticket.t_lock;
  let v = ticket.value in
  Mutex.unlock ticket.t_lock;
  v

let pending t =
  Mutex.lock t.lock;
  let n = t.running + Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let queued t =
  Mutex.lock t.lock;
  let n = Queue.length t.queue in
  Mutex.unlock t.lock;
  n

let workers t = t.workers
let queue_capacity t = t.queue_cap

let retry_after_estimate t =
  Mutex.lock t.lock;
  let est = estimate_locked t in
  Mutex.unlock t.lock;
  est

let wait_until_below t n =
  Mutex.lock t.lock;
  while t.running + Queue.length t.queue >= n do
    Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock

let stop t =
  Mutex.lock t.lock;
  t.accepting <- false;
  Mutex.unlock t.lock

let drain t =
  Mutex.lock t.lock;
  while t.running > 0 || not (Queue.is_empty t.queue) do
    Condition.wait t.changed t.lock
  done;
  Mutex.unlock t.lock

let shutdown t =
  stop t;
  drain t;
  Mutex.lock t.lock;
  t.sweeper_stop <- true;
  t.closing <- true;
  Condition.broadcast t.work;
  let sweeper = t.sweeper and domains = t.domains in
  t.sweeper <- None;
  t.domains <- [];
  Mutex.unlock t.lock;
  Option.iter Thread.join sweeper;
  List.iter Domain.join domains
