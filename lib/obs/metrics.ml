(* Process-wide counters for the reference pipeline.

   The contract that keeps this safe to sprinkle over hot paths:

   - When disabled (the default), a counter update is one non-atomic bool
     load and a branch — no allocation, no atomic traffic, no lock.
   - When enabled, updates are [Atomic] operations, so jobs running on the
     serve scheduler's worker domains count exactly.
   - Counters are registered once, at module-initialisation time; the
     registry itself is only ever read afterwards. *)

let enabled_flag = ref false

let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

type counter = { c_name : string; cell : int Atomic.t }

(* Power-of-two buckets: [counts.(0)] holds observations <= 1, [counts.(i)]
   observations in (2^(i-1), 2^i].  Fixed size, so [observe] never
   allocates. *)
let histogram_buckets = 31

type histogram = { h_name : string; counts : int Atomic.t array }

let registry_lock = Mutex.create ()
let counters : counter list ref = ref []
let histograms : histogram list ref = ref []

let counter name =
  let c = { c_name = name; cell = Atomic.make 0 } in
  Mutex.lock registry_lock;
  counters := c :: !counters;
  Mutex.unlock registry_lock;
  c

let histogram name =
  let h =
    { h_name = name; counts = Array.init histogram_buckets (fun _ -> Atomic.make 0) }
  in
  Mutex.lock registry_lock;
  histograms := h :: !histograms;
  Mutex.unlock registry_lock;
  h

let incr c = if !enabled_flag then Atomic.incr c.cell
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.cell n)
let name c = c.c_name

let bucket_index v =
  if v <= 1 then 0
  else begin
    let i = ref 0 and x = ref 1 in
    while !x < v && !i < histogram_buckets - 1 do
      x := !x * 2;
      i := !i + 1
    done;
    !i
  end

let observe h v =
  if !enabled_flag then Atomic.incr h.counts.(bucket_index v)

let histogram_name h = h.h_name

(* (bucket upper bound, count) for every non-empty bucket. *)
let histogram_buckets_of h =
  let acc = ref [] in
  for i = histogram_buckets - 1 downto 0 do
    let n = Atomic.get h.counts.(i) in
    if n > 0 then acc := ((1 lsl i), n) :: !acc
  done;
  !acc

let reset () =
  List.iter (fun c -> Atomic.set c.cell 0) !counters;
  List.iter (fun h -> Array.iter (fun a -> Atomic.set a 0) h.counts) !histograms

let all () = List.rev_map (fun c -> (c.c_name, Atomic.get c.cell)) !counters
let all_histograms () =
  List.rev_map (fun h -> (h.h_name, histogram_buckets_of h)) !histograms

(* --- the pipeline's counter catalogue ------------------------------------

   Defined here (not at the call sites) so instrumentation, the CLI table,
   snapshots and tests all agree on one name per quantity.  Registration
   order is the order of the snapshot JSON and the --stats table, which
   tools parse: append new entries rather than reordering.  Keep
   [doc/observability.mld] in sync when adding entries. *)

let lu_factor = counter "lu.factor"
let lu_symbolic = counter "lu.symbolic"
let lu_refactor = counter "lu.refactor"
let refactor_fallbacks = counter "lu.refactor_fallback"

(* The batched engine ([Symref_linalg.Kernel.Batch]): its served points
   count under [lu.refactor], its threshold ejects under
   [lu.refactor_fallback]. *)
let kernel_workspaces = counter "kernel.workspaces"
let kernel_batch_ejects = counter "kernel.batch_ejects"
let evaluator_calls = counter "evaluator.calls"
let memo_hits = counter "evaluator.memo_hit"
let memo_misses = counter "evaluator.memo_miss"
let pattern_hits = counter "nodal.pattern_hit"
let pattern_misses = counter "nodal.pattern_miss"
let adaptive_passes = counter "adaptive.passes"
let dry_passes = counter "adaptive.dry_passes"
let deflated_passes = counter "adaptive.deflated_passes"
let points_evaluated = counter "interp.points_evaluated"
let points_per_pass = histogram "interp.points_per_pass"

(* The guard family: graceful degradation inside [Interp.run] — singular or
   non-finite evaluations retried at perturbed unit-circle points instead of
   aborting the pass (see [doc/robustness.mld]). *)
let guard_singular_retries = counter "guard.singular_retries"
let guard_nonfinite_retries = counter "guard.nonfinite_retries"
let guard_retry_giveups = counter "guard.retry_giveups"

(* The serve family: the result cache and job scheduler of [Symref_serve].
   (The cache and scheduler also keep their own always-on gauges for
   protocol stats replies; these counters are the --stats/snapshot view.) *)
let serve_cache_hits = counter "serve.cache_hit"
let serve_cache_misses = counter "serve.cache_miss"
let serve_cache_evictions = counter "serve.cache_eviction"
let serve_jobs_submitted = counter "serve.jobs_submitted"
let serve_jobs_completed = counter "serve.jobs_completed"
let serve_jobs_failed = counter "serve.jobs_failed"
let serve_jobs_timeout = counter "serve.jobs_timeout"
let serve_jobs_rejected = counter "serve.jobs_rejected"
let serve_client_retries = counter "serve.client_retries"

(* Fleet additions: the in-memory cache's live byte gauge (maintained by
   +/- deltas, so it reads as a level, not a rate), the persistent on-disk
   cache layer, and the consistent-hash front router. *)
let serve_cache_bytes = counter "serve.cache_bytes"
let serve_disk_cache_hits = counter "serve.disk_cache_hit"
let serve_disk_cache_misses = counter "serve.disk_cache_miss"
let serve_disk_cache_writes = counter "serve.disk_cache_write"
let serve_disk_cache_corrupt = counter "serve.disk_cache_corrupt"

(* Resilience additions: the disk-cache scrubber and overload shedding in
   the scheduler (listed with the serve family), then request hedging and
   the per-worker circuit breakers in the router, and the fleet
   supervisor's restart accounting. *)
let serve_disk_cache_scrubbed = counter "serve.disk_cache_scrubbed"
let serve_shed_jobs = counter "serve.shed_jobs"
let serve_evicted_jobs = counter "serve.evicted_jobs"
let router_requests = counter "router.requests"
let router_failovers = counter "router.failovers"
let router_health_checks = counter "router.health_checks"
let router_dead_workers = counter "router.dead_workers"
let router_hedges = counter "router.hedges"
let router_hedge_wins = counter "router.hedge_wins"
let router_breaker_opens = counter "router.breaker_open"
let router_breaker_half_opens = counter "router.breaker_half_open"
let router_breaker_closes = counter "router.breaker_close"
let fleet_restarts = counter "fleet.restarts"
let fleet_giveups = counter "fleet.giveups"

(* The simplify family: the reference-driven simplification pipeline
   ([Symref_simplify.Pipeline]).  Retries are tightened SDG/SAG re-runs
   after a failed verification; fallbacks are runs that ended on the exact
   pruned expression; unsupported counts circuits over the symbolic
   dimension limit. *)
let simplify_requests = counter "simplify.requests"
let simplify_retries = counter "simplify.retries"
let simplify_fallbacks = counter "simplify.fallbacks"
let simplify_unsupported = counter "simplify.unsupported"
let simplify_removed_elements = counter "simplify.removed_elements"
let simplify_removed_terms = counter "simplify.removed_terms"
