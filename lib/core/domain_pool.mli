(** A lazily created, persistent pool of worker domains.

    {!Interp.run}[ ~domains:n] used to spawn fresh domains on every
    interpolation pass, whose setup cost dwarfed the ~50-point workload and
    made parallel passes {e slower} than sequential ones.  The pool spawns
    workers once, on first use, parks them on a condition variable between
    batches and joins them from an [at_exit] hook.

    The pool never exceeds [Domain.recommended_domain_count () - 1]
    workers (no worker at all on a single core, where [parallel] degrades
    to a plain sequential loop), and the caller helps drain the job queue,
    so oversubscribed or slow-to-wake workers never idle the calling
    domain.  Callers that partition work into disjoint index ranges stay
    bit-identical to their sequential path whichever domain runs each
    chunk. *)

val parallel : (unit -> unit) array -> unit
(** Run all jobs to completion; [jobs.(0)] executes on the calling domain,
    the rest on pool workers and/or the caller as they become free.  Grows
    the pool towards [Array.length jobs - 1] workers (clamped to the core
    count) if needed.  If any job raises, the first exception is re-raised
    here {e after} every job has finished.  Not reentrant: must not be
    called from inside a pooled job. *)

val async : (unit -> unit) -> bool
(** Enqueue one job for execution by a pool worker and return immediately
    (spawning a first worker if none is alive yet).  Unlike {!parallel}
    there is no completion barrier: the caller must track completion itself
    — {!Symref_serve}'s scheduler counts jobs in flight and drains them
    before shutting anything down.  Returns [false] without queueing when
    the pool cannot have workers (single-core machine); the caller then
    runs the job on a thread of its own.  The job must not itself call
    {!parallel} (same non-reentrancy rule as pooled {!parallel} jobs), and
    exceptions escaping it are the job's own responsibility — wrap the body.
    A caller of {!parallel} that helps drain the queue may execute an
    [async] job on its own domain; jobs must therefore not assume which
    domain runs them. *)

val ensure : int -> unit
(** Pre-spawn workers (clamped to the core count) so the first parallel
    pass does not pay creation latency. *)

val size : unit -> int
(** Workers currently alive. *)

val worker_index : unit -> int
(** A small dense index for the calling domain, assigned on first use —
    the key of the batched engine's per-domain workspace pools
    ({!Symref_linalg.Kernel.Batch.Pool}).  Pool workers claim theirs at spawn, so
    long-lived domains occupy the low indices; the main domain gets one on
    its first evaluation. *)

val shutdown : unit -> unit
(** Join every worker (also runs automatically at exit).  The pool can be
    used again afterwards; the next {!parallel} respawns workers. *)
