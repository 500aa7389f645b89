(** Process-wide, domain-safe counters and histograms for the reference
    pipeline.

    Disabled by default.  While disabled every update is a single non-atomic
    boolean load and a branch — no allocation, no atomic traffic — so
    instrumentation can live on hot paths without measurable cost.  While
    enabled, updates are [Atomic] operations and therefore exact when
    several worker domains run jobs at once.

    The fixed catalogue at the bottom is the single source of truth for the
    pipeline's counter names; {!Snapshot} dumps exactly these, in
    registration order. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered counter and histogram. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register a new counter.  Call at module-initialisation time only. *)

val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val name : counter -> string

val all : unit -> (string * int) list
(** Every registered counter with its current value, in registration
    order. *)

(** {1 Histograms}

    Power-of-two buckets: bucket [0] collects observations [<= 1], bucket
    [i] observations in [(2^(i-1), 2^i]].  Fixed depth, so {!observe} never
    allocates. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit
val histogram_name : histogram -> string

val all_histograms : unit -> (string * (int * int) list) list
(** Every registered histogram, in registration order, with
    [(bucket upper bound, count)] for each non-empty bucket, ascending. *)

(** {1 The pipeline's counter catalogue} *)

val lu_factor : counter
(** Full Markowitz factorisations ({!Symref_linalg.Sparse.factor}). *)

val lu_symbolic : counter
(** Symbolic (pattern-recording) factorisations
    ({!Symref_linalg.Sparse.symbolic}). *)

val lu_refactor : counter
(** Points served by a numeric replay of a learned pattern
    ({!Symref_linalg.Kernel.Batch}). *)

val refactor_fallbacks : counter
(** Replays rejected by the threshold-pivoting floor (the point fell back
    to a full factorisation). *)

(** {2 The batched engine} *)

val kernel_workspaces : counter
(** Batch workspaces allocated — one per learned pattern. *)

val kernel_batch_ejects : counter
(** Points ejected from a batch to a full factorisation (threshold floor,
    non-finite pivot, or injected singularity), once each.  Every
    evaluation of a learned pattern counts exactly one of [lu.refactor]
    and [kernel.batch_ejects]. *)

val evaluator_calls : counter
(** {!Symref_core.Evaluator} [eval] calls — the paper's cost metric. *)

val memo_hits : counter
(** Shared num/den evaluator: evaluations served from the memo table. *)

val memo_misses : counter
(** Shared num/den evaluator: evaluations that performed a factorisation. *)

val pattern_hits : counter
(** Per-scale factorisation-pattern cache hits
    ({!Symref_mna.Nodal}). *)

val pattern_misses : counter
(** Pattern-cache misses: a symbolic analysis was (re)learned. *)

val adaptive_passes : counter
(** Interpolation passes executed by {!Symref_core.Adaptive.run}. *)

val dry_passes : counter
(** Passes that established no new coefficient. *)

val deflated_passes : counter
(** Passes that subtracted known coefficients before interpolating
    (eq. 17 problem reduction). *)

val points_evaluated : counter
(** LU evaluation points across all interpolation batches. *)

val points_per_pass : histogram
(** Distribution of evaluation points per interpolation batch. *)

(** {2 The guard family}

    Graceful degradation inside {!Symref_core.Interp.run}: evaluations that
    come back singular (zero) or non-finite are retried at slightly
    perturbed unit-circle points instead of aborting the pass. *)

val guard_singular_retries : counter
(** Singular (zero) evaluations retried at a perturbed point. *)

val guard_nonfinite_retries : counter
(** Non-finite evaluations retried at a perturbed point. *)

val guard_retry_giveups : counter
(** Points whose retry budget ran out (the original value was kept). *)

(** {2 The serve family}

    Result cache and job scheduler of the [Symref_serve] service (daemon
    and in-process batch sweeps alike). *)

val serve_cache_hits : counter
(** Jobs answered from the content-addressed result cache. *)

val serve_cache_misses : counter
(** Cache lookups that had to run the analysis. *)

val serve_cache_evictions : counter
(** Entries evicted by the cache's byte budget (LRU order). *)

val serve_jobs_submitted : counter
(** Jobs accepted by the scheduler (admitted past the queue bound). *)

val serve_jobs_completed : counter
(** Jobs that finished with a successful reply (cached or computed). *)

val serve_jobs_failed : counter
(** Jobs that finished with a structured error reply. *)

val serve_jobs_timeout : counter
(** Jobs cancelled by their wall-clock deadline. *)

val serve_jobs_rejected : counter
(** Submissions refused with a backpressure reply (queue full). *)

val serve_client_retries : counter
(** Client-side request retries (busy replies and transient socket
    failures, see {!Symref_serve.Client}). *)

val serve_cache_bytes : counter
(** Live byte footprint of the in-memory result cache — maintained with
    signed deltas on insert/evict/clear, so it is a gauge: its value is the
    current level, not a monotone total. *)

val serve_disk_cache_hits : counter
(** Jobs answered from the persistent on-disk cache layer (an in-memory
    miss that a previous process — or life — of the fleet had computed). *)

val serve_disk_cache_misses : counter
(** On-disk lookups that found no (valid) entry. *)

val serve_disk_cache_writes : counter
(** Payloads persisted to the on-disk cache (atomic tmp + rename). *)

val serve_disk_cache_corrupt : counter
(** On-disk entries rejected by the checksum header (truncated or
    corrupted files are skipped, never fatal). *)

(** {2 The router family}

    The consistent-hash front router ({!Symref_serve.Router} /
    [symref router]). *)

val router_requests : counter
(** Requests forwarded to a worker. *)

val router_failovers : counter
(** Requests re-routed to the next worker on the ring after a failure. *)

val router_health_checks : counter
(** Hello health probes sent to workers. *)

val router_dead_workers : counter
(** Health transitions from alive to dead (the breaker opening). *)

(** {2 The resilience family}

    Overload shedding, hedged requests, circuit breakers and the fleet
    supervisor (see [doc/robustness.mld], "Fleet resilience"). *)

val serve_shed_jobs : counter
(** Submissions shed by admission control: the wait queue was full, or the
    estimated queue wait already exceeded the job's deadline.  Shed jobs get
    a typed [overloaded] reply carrying [retry_after_ms]. *)

val serve_evicted_jobs : counter
(** Queued jobs evicted because their deadline passed while they waited.
    Counted here only, never under [serve.shed_jobs]: the two are
    disjoint. *)

val serve_disk_cache_scrubbed : counter
(** Orphaned [.tmp.*] staging files removed when the on-disk cache
    directory was opened — debris of a writer that crashed mid-store. *)

val router_hedges : counter
(** Forwards that issued a hedge request to the next ring candidate after
    the deterministic p99-derived delay. *)

val router_hedge_wins : counter
(** Hedged forwards where the hedge replied first (the primary was
    abandoned). *)

val router_breaker_opens : counter
(** Circuit-breaker transitions closed/half-open → open (consecutive
    failures reached the threshold, or the half-open probe failed). *)

val router_breaker_half_opens : counter
(** Breaker transitions open → half-open (cooldown elapsed; one probe
    request is let through). *)

val router_breaker_closes : counter
(** Breaker transitions half-open/open → closed (a request or probe
    succeeded). *)

val fleet_restarts : counter
(** Worker processes restarted by the supervisor after a crash. *)

val fleet_giveups : counter
(** Worker slots the supervisor stopped restarting because the crash-loop
    budget was exhausted. *)

(** {2 The simplify family}

    The reference-driven simplification pipeline
    ([Symref_simplify.Pipeline]). *)

val simplify_requests : counter
(** Pipeline runs started. *)

val simplify_retries : counter
(** Tightened SDG/SAG re-runs after a failed verification sweep. *)

val simplify_fallbacks : counter
(** Runs that ended on the exact pruned expression (no term dropping). *)

val simplify_unsupported : counter
(** Runs rejected because the pruned circuit stays above the symbolic
    dimension limit. *)

val simplify_removed_elements : counter
(** Circuit elements removed by the SBG stage. *)

val simplify_removed_terms : counter
(** Symbolic terms removed by the SDG and SAG stages. *)
