(** A typed dump of every {!Metrics} counter of the pipeline catalogue.

    The benchmark embeds one in [BENCH_interp.json], the CLI prints one
    under [--stats], and the tests assert on the fields directly.  JSON
    field names are exactly the {!Metrics} catalogue names, and
    [of_string (to_string t) = t]. *)

type t = {
  lu_factor : int;  (** full Markowitz factorisations *)
  lu_symbolic : int;  (** symbolic (pattern-recording) factorisations *)
  lu_refactor : int;  (** successful numeric replays *)
  refactor_fallbacks : int;  (** replays rejected by the threshold floor *)
  kernel_workspaces : int;  (** batch workspaces allocated *)
  kernel_batch_ejects : int;
      (** points ejected from a batch to a full factorisation *)
  evaluator_calls : int;  (** evaluator [eval] calls *)
  memo_hits : int;  (** shared num/den table hits *)
  memo_misses : int;  (** shared num/den table misses (factorised) *)
  pattern_hits : int;  (** per-scale pattern-cache hits *)
  pattern_misses : int;  (** pattern-cache misses (symbolic analysis ran) *)
  adaptive_passes : int;
  dry_passes : int;  (** passes that established nothing *)
  deflated_passes : int;  (** passes using eq.-17 deflation *)
  points_evaluated : int;  (** LU points across all batches *)
  guard_singular_retries : int;
      (** singular evaluations retried at perturbed points *)
  guard_nonfinite_retries : int;
      (** non-finite evaluations retried at perturbed points *)
  guard_retry_giveups : int;  (** points whose retry budget ran out *)
  serve_cache_hits : int;  (** serve jobs answered from the result cache *)
  serve_cache_misses : int;  (** serve cache lookups that ran the analysis *)
  serve_cache_evictions : int;  (** entries evicted by the cache byte budget *)
  serve_jobs_submitted : int;  (** jobs admitted by the serve scheduler *)
  serve_jobs_completed : int;  (** jobs finished with a successful reply *)
  serve_jobs_failed : int;  (** jobs finished with a structured error *)
  serve_jobs_timeout : int;  (** jobs cancelled by their deadline *)
  serve_jobs_rejected : int;  (** submissions refused by backpressure *)
  serve_client_retries : int;  (** client retries (busy/transient failures) *)
  serve_cache_bytes : int;  (** live in-memory cache bytes (gauge) *)
  serve_disk_cache_hits : int;  (** jobs replayed from the on-disk cache *)
  serve_disk_cache_misses : int;  (** on-disk lookups with no valid entry *)
  serve_disk_cache_writes : int;  (** payloads persisted to disk *)
  serve_disk_cache_corrupt : int;  (** checksum-rejected on-disk entries *)
  serve_disk_cache_scrubbed : int;
      (** orphaned staging files removed on cache open *)
  serve_shed_jobs : int;  (** submissions shed by admission control *)
  serve_evicted_jobs : int;  (** queued jobs evicted past their deadline *)
  router_requests : int;  (** requests forwarded by the front router *)
  router_failovers : int;  (** requests re-routed after a worker failure *)
  router_health_checks : int;  (** Hello health probes sent *)
  router_dead_workers : int;  (** breaker open transitions *)
  router_hedges : int;  (** hedge requests issued against the tail *)
  router_hedge_wins : int;  (** races won by the hedged duplicate *)
  router_breaker_opens : int;  (** circuit breakers opened *)
  router_breaker_half_opens : int;  (** half-open probe admissions *)
  router_breaker_closes : int;  (** breakers closed by a success *)
  fleet_restarts : int;  (** crashed workers restarted by the supervisor *)
  fleet_giveups : int;  (** worker slots abandoned past the crash budget *)
  simplify_requests : int;  (** simplification pipeline runs started *)
  simplify_retries : int;  (** tightened SDG/SAG re-runs after verification *)
  simplify_fallbacks : int;  (** runs ending on the exact pruned expression *)
  simplify_unsupported : int;  (** runs over the symbolic dimension limit *)
  simplify_removed_elements : int;  (** elements removed by the SBG stage *)
  simplify_removed_terms : int;  (** terms removed by the SDG/SAG stages *)
  points_per_pass : (int * int) list;
      (** histogram, [(bucket upper bound, batches)] *)
}

val capture : unit -> t
val zero : t
val is_zero : t -> bool

val factorizations : t -> int
(** [lu_refactor + lu_factor]: numeric factorisations actually performed —
    the paper's cost metric as seen by the matrix layer. *)

val to_json : t -> Json.t
val to_string : t -> string

val of_json : Json.t -> t
(** @raise Failure on missing or ill-typed fields. *)

val of_string : string -> t
(** @raise Failure on malformed input. *)

val to_table : t -> string
(** Human-readable counter table (the [--stats] output). *)
