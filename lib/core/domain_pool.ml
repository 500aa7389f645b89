(* A lazily created, process-wide pool of worker domains.

   [Interp.run ~domains:n] used to [Domain.spawn] fresh domains on every
   interpolation pass; at ~50 LU points per pass the spawn/teardown cost
   (minor heap setup, thread creation) dominated the work and made
   [domains > 1] slower than sequential evaluation.  The pool pays that
   cost once: workers are spawned on first use, sleep on a condition
   variable between batches, and are joined by an [at_exit] hook.

   Two further defences keep tiny batches (an adaptive pass is a few
   hundred microseconds) from drowning in scheduling latency:

   - The pool never grows beyond [Domain.recommended_domain_count () - 1]
     workers.  Oversubscribing cores only adds context switches; on a
     single-core machine the pool stays empty and every job runs on the
     caller, which is exactly the sequential path.

   - The caller drains the job queue itself after finishing its own share,
     so excess jobs (more jobs than workers) and slow worker wake-ups never
     leave the calling domain idle while work remains.  Workers and the
     waiting caller spin briefly on atomic counters before blocking, which
     turns back-to-back pass handoffs into microseconds instead of futex
     round trips.

   Scheduling is deliberately static in who *may* run a job, but any
   assignment is observationally identical: callers partition work into
   disjoint index ranges (as Interp does), so results are bit-identical to
   the sequential path whichever domain executes each chunk.  Not
   reentrant: a pooled job must not itself call [parallel]. *)

type job = unit -> unit

type pool = {
  lock : Mutex.t;
  work : Condition.t; (* a job was queued, or shutdown began *)
  queue : job Queue.t;
  pending : int Atomic.t; (* |queue|, readable without the lock *)
  mutable workers : int;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t list;
  mutable cleanup_registered : bool;
}

let pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    pending = Atomic.make 0;
    workers = 0;
    shutting_down = false;
    domains = [];
    cleanup_registered = false;
  }

let max_workers = Int.max 0 (Domain.recommended_domain_count () - 1)

(* The dense per-domain index of the batch workspace pools, assigned
   on first use.  Re-exported here because consumers think of it as "which
   pool worker am I"; it lives in [Symref_linalg.Kernel] so the matrix layer
   (which cannot see this module) can key workspaces off it. *)
let worker_index = Symref_linalg.Kernel.domain_index

(* ~100us of polling before giving up and blocking: longer than the gap
   between consecutive interpolation passes, far shorter than a human. *)
let spin_budget = 20_000

let worker_loop () =
  (* Claim a workspace index up front: long-lived pool workers get the low,
     densely pooled indices before any transient [`Spawn] domain can. *)
  ignore (worker_index ());
  let rec next () =
    let rec spin budget =
      if budget > 0 && Atomic.get pool.pending = 0 && not pool.shutting_down
      then begin
        Domain.cpu_relax ();
        spin (budget - 1)
      end
    in
    spin spin_budget;
    Mutex.lock pool.lock;
    let rec await () =
      if pool.shutting_down then None
      else
        match Queue.take_opt pool.queue with
        | Some j ->
            Atomic.decr pool.pending;
            Some j
        | None ->
            Condition.wait pool.work pool.lock;
            await ()
    in
    let j = await () in
    Mutex.unlock pool.lock;
    match j with
    | None -> ()
    | Some j ->
        j ();
        next ()
  in
  next ()

let shutdown () =
  Mutex.lock pool.lock;
  pool.shutting_down <- true;
  Condition.broadcast pool.work;
  let ds = pool.domains in
  pool.domains <- [];
  pool.workers <- 0;
  Mutex.unlock pool.lock;
  List.iter Domain.join ds;
  (* Leave the pool usable again (tests exercise restart). *)
  Mutex.lock pool.lock;
  pool.shutting_down <- false;
  Mutex.unlock pool.lock

let ensure n =
  let n = Int.min n max_workers in
  Mutex.lock pool.lock;
  if not pool.cleanup_registered then begin
    pool.cleanup_registered <- true;
    at_exit shutdown
  end;
  while pool.workers < n do
    pool.domains <- Domain.spawn worker_loop :: pool.domains;
    pool.workers <- pool.workers + 1
  done;
  Mutex.unlock pool.lock

let size () =
  Mutex.lock pool.lock;
  let n = pool.workers in
  Mutex.unlock pool.lock;
  n

(* Fire-and-forget submission for long-lived services (Symref_serve): the
   job is queued for a pool worker and [async] returns immediately.  The
   caller owns completion tracking (the scheduler counts jobs in flight and
   drains them before any shutdown).  On a single-core machine the pool can
   have no workers at all, so the job is refused and the caller must run it
   on a thread of its own. *)
let async (job : job) =
  if max_workers = 0 then false
  else begin
    ensure 1;
    Mutex.lock pool.lock;
    Queue.add job pool.queue;
    Atomic.incr pool.pending;
    Condition.signal pool.work;
    Mutex.unlock pool.lock;
    true
  end

let parallel (jobs : job array) =
  let n = Array.length jobs in
  if n = 0 then ()
  else if n = 1 || max_workers = 0 then
    (* Sequential fallback: same jobs, same index order, same results. *)
    Array.iter (fun j -> j ()) jobs
  else begin
    ensure (n - 1);
    let remaining = Atomic.make (n - 1) in
    let fin_lock = Mutex.create () and fin = Condition.create () in
    let failure = Atomic.make None in
    let catching i () =
      (try jobs.(i) ()
       with e -> ignore (Atomic.compare_and_set failure None (Some e)));
      Mutex.lock fin_lock;
      if Atomic.fetch_and_add remaining (-1) = 1 then Condition.signal fin;
      Mutex.unlock fin_lock
    in
    Mutex.lock pool.lock;
    for i = 1 to n - 1 do
      Queue.add (catching i) pool.queue
    done;
    Atomic.fetch_and_add pool.pending (n - 1) |> ignore;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    (* The caller's own share; even if it raises, wait for the pooled jobs —
       they may still be writing into the caller's result buffers. *)
    let own = try Ok (jobs.(0) ()) with e -> Error e in
    (* Help drain the queue: with fewer workers than jobs (or workers still
       waking up) the caller would otherwise idle while work remains. *)
    let rec drain () =
      Mutex.lock pool.lock;
      let j =
        match Queue.take_opt pool.queue with
        | Some j ->
            Atomic.decr pool.pending;
            Some j
        | None -> None
      in
      Mutex.unlock pool.lock;
      match j with
      | Some j ->
          j ();
          drain ()
      | None -> ()
    in
    drain ();
    let rec spin budget =
      if budget > 0 && Atomic.get remaining > 0 then begin
        Domain.cpu_relax ();
        spin (budget - 1)
      end
    in
    spin spin_budget;
    Mutex.lock fin_lock;
    while Atomic.get remaining > 0 do
      Condition.wait fin fin_lock
    done;
    Mutex.unlock fin_lock;
    match own with
    | Error e -> raise e
    | Ok () -> ( match Atomic.get failure with Some e -> raise e | None -> ())
  end
