(** Bounded job scheduler with admission control and load shedding, running
    jobs on worker domains of its own.

    Jobs are opaque thunks; up to [workers] run at once, each on one worker
    domain, the next [queue] submissions wait in FIFO order, and the excess
    is {e shed} — refused with a [retry_after_ms] estimate so the caller can
    send a typed [Overloaded] backpressure reply instead of letting the
    daemon's memory grow without bound.  Admission is deadline-aware: a
    submission whose estimated queue wait (an EWMA of recent service times,
    scaled by the backlog) already exceeds its deadline is shed up front,
    and a queued job whose deadline passes while it waits is evicted
    promptly — swept at every submission, at every completion, and by a
    background sweeper tick, so eviction never waits for a running slot to
    free — its ticket resolves to [Error (Evicted _)] without the job ever
    running.

    Worker domains are spawned on demand, the first with the first job, so
    a scheduler that is never submitted to starts none; idle workers block
    on a condition variable; {!shutdown} joins them.  A job counted as
    running has been handed to a worker, so every job that waits sits in
    the one queue the sweeper evicts from.

    Completion is tracked per job through a {e ticket} the submitter can
    await, and globally through {!drain}, which is what makes graceful
    shutdown possible: stop admitting, drain, then tear the transport down.
    A job's slot is freed before its ticket resolves, so a client that
    submits again as soon as it reads a reply finds the slot free.

    A job thunk must not raise for expected failures — it should return a
    structured error value ({!Service} catches everything and builds error
    replies).  A thunk that does raise resolves its ticket to [Error exn]
    rather than killing the worker. *)

type t

type 'a ticket

exception Evicted of { retry_after_ms : float }
(** Resolves the ticket of a queued job whose deadline passed before it
    could start: the job never ran.  [retry_after_ms] is the drain estimate
    at eviction time — {!Daemon} maps this to the [Overloaded] reply. *)

(** What {!submit} did with the thunk. *)
type 'a submission =
  | Admitted of 'a ticket  (** running now, or waiting in the queue *)
  | Shed of { retry_after_ms : float }
      (** refused by admission control: the queue is full, or the estimated
          wait already exceeds the job's deadline — retry after the hint *)
  | Stopped  (** the scheduler is no longer accepting (shutdown) *)

val create : ?queue:int -> ?workers:int -> unit -> t
(** [workers] (default [0]; see {!resolve_workers}) bounds the jobs running
    at once and the worker domains that run them; [queue] (default 64, [0]
    disables queueing — busy workers shed immediately) bounds the
    submissions waiting behind them.  Spawns nothing yet.
    @raise Invalid_argument when [workers] is outside [0..64]. *)

val resolve_workers : int -> int
(** The worker count {!create} uses for a [workers] argument: [0] means
    [min 64 (max 1 (cores - 1))], [1..64] is taken as is.
    @raise Invalid_argument for any other value. *)

val submit : ?deadline:float -> t -> (unit -> 'a) -> 'a submission
(** [deadline] (absolute [Unix.gettimeofday] seconds) enables the
    deadline-aware paths: shed-up-front at admission, prompt eviction from
    the queue.  Counts [serve.jobs_submitted] / [serve.jobs_rejected] /
    [serve.shed_jobs] (admission sheds only) / [serve.evicted_jobs]
    (queue evictions only) in {!Symref_obs.Metrics}. *)

val await : 'a ticket -> ('a, exn) result
(** Block until the job finishes.  [Error e] only for exceptions that
    escaped the thunk, or {!Evicted} for a queued job whose deadline
    passed. *)

val peek : 'a ticket -> ('a, exn) result option
(** Non-blocking view of a ticket. *)

val pending : t -> int
(** Jobs admitted and not yet finished (running plus queued). *)

val queued : t -> int
(** Jobs waiting in the queue (admitted, not yet running). *)

val workers : t -> int
(** Jobs running at once, at most: the worker domains this scheduler may
    spawn. *)

val queue_capacity : t -> int

val retry_after_estimate : t -> float
(** The current admission estimate (ms): EWMA service time scaled by the
    backlog — what a shed submission would be told right now. *)

val wait_until_below : t -> int -> unit
(** Block until [pending t < n] — how the in-process batch sweep feeds an
    arbitrarily long file list through the bounded queue without busy
    waiting. *)

val stop : t -> unit
(** Refuse new submissions; running and queued jobs are unaffected. *)

val drain : t -> unit
(** Block until every admitted job has finished (the queue included). *)

val shutdown : t -> unit
(** [stop] + [drain] + join the sweeper thread and the worker domains
    (those that were spawned).  Must not be called from a job. *)
