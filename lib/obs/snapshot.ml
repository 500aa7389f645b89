type t = {
  lu_factor : int;
  lu_symbolic : int;
  lu_refactor : int;
  refactor_fallbacks : int;
  kernel_workspaces : int;
  kernel_batch_ejects : int;
  evaluator_calls : int;
  memo_hits : int;
  memo_misses : int;
  pattern_hits : int;
  pattern_misses : int;
  adaptive_passes : int;
  dry_passes : int;
  deflated_passes : int;
  points_evaluated : int;
  guard_singular_retries : int;
  guard_nonfinite_retries : int;
  guard_retry_giveups : int;
  serve_cache_hits : int;
  serve_cache_misses : int;
  serve_cache_evictions : int;
  serve_jobs_submitted : int;
  serve_jobs_completed : int;
  serve_jobs_failed : int;
  serve_jobs_timeout : int;
  serve_jobs_rejected : int;
  serve_client_retries : int;
  serve_cache_bytes : int;
  serve_disk_cache_hits : int;
  serve_disk_cache_misses : int;
  serve_disk_cache_writes : int;
  serve_disk_cache_corrupt : int;
  serve_disk_cache_scrubbed : int;
  serve_shed_jobs : int;
  serve_evicted_jobs : int;
  router_requests : int;
  router_failovers : int;
  router_health_checks : int;
  router_dead_workers : int;
  router_hedges : int;
  router_hedge_wins : int;
  router_breaker_opens : int;
  router_breaker_half_opens : int;
  router_breaker_closes : int;
  fleet_restarts : int;
  fleet_giveups : int;
  simplify_requests : int;
  simplify_retries : int;
  simplify_fallbacks : int;
  simplify_unsupported : int;
  simplify_removed_elements : int;
  simplify_removed_terms : int;
  points_per_pass : (int * int) list;
}

let zero =
  {
    lu_factor = 0;
    lu_symbolic = 0;
    lu_refactor = 0;
    refactor_fallbacks = 0;
    kernel_workspaces = 0;
    kernel_batch_ejects = 0;
    evaluator_calls = 0;
    memo_hits = 0;
    memo_misses = 0;
    pattern_hits = 0;
    pattern_misses = 0;
    adaptive_passes = 0;
    dry_passes = 0;
    deflated_passes = 0;
    points_evaluated = 0;
    guard_singular_retries = 0;
    guard_nonfinite_retries = 0;
    guard_retry_giveups = 0;
    serve_cache_hits = 0;
    serve_cache_misses = 0;
    serve_cache_evictions = 0;
    serve_jobs_submitted = 0;
    serve_jobs_completed = 0;
    serve_jobs_failed = 0;
    serve_jobs_timeout = 0;
    serve_jobs_rejected = 0;
    serve_client_retries = 0;
    serve_cache_bytes = 0;
    serve_disk_cache_hits = 0;
    serve_disk_cache_misses = 0;
    serve_disk_cache_writes = 0;
    serve_disk_cache_corrupt = 0;
    serve_disk_cache_scrubbed = 0;
    serve_shed_jobs = 0;
    serve_evicted_jobs = 0;
    router_requests = 0;
    router_failovers = 0;
    router_health_checks = 0;
    router_dead_workers = 0;
    router_hedges = 0;
    router_hedge_wins = 0;
    router_breaker_opens = 0;
    router_breaker_half_opens = 0;
    router_breaker_closes = 0;
    fleet_restarts = 0;
    fleet_giveups = 0;
    simplify_requests = 0;
    simplify_retries = 0;
    simplify_fallbacks = 0;
    simplify_unsupported = 0;
    simplify_removed_elements = 0;
    simplify_removed_terms = 0;
    points_per_pass = [];
  }

let capture () =
  {
    lu_factor = Metrics.value Metrics.lu_factor;
    lu_symbolic = Metrics.value Metrics.lu_symbolic;
    lu_refactor = Metrics.value Metrics.lu_refactor;
    refactor_fallbacks = Metrics.value Metrics.refactor_fallbacks;
    kernel_workspaces = Metrics.value Metrics.kernel_workspaces;
    kernel_batch_ejects = Metrics.value Metrics.kernel_batch_ejects;
    evaluator_calls = Metrics.value Metrics.evaluator_calls;
    memo_hits = Metrics.value Metrics.memo_hits;
    memo_misses = Metrics.value Metrics.memo_misses;
    pattern_hits = Metrics.value Metrics.pattern_hits;
    pattern_misses = Metrics.value Metrics.pattern_misses;
    adaptive_passes = Metrics.value Metrics.adaptive_passes;
    dry_passes = Metrics.value Metrics.dry_passes;
    deflated_passes = Metrics.value Metrics.deflated_passes;
    points_evaluated = Metrics.value Metrics.points_evaluated;
    guard_singular_retries = Metrics.value Metrics.guard_singular_retries;
    guard_nonfinite_retries = Metrics.value Metrics.guard_nonfinite_retries;
    guard_retry_giveups = Metrics.value Metrics.guard_retry_giveups;
    serve_cache_hits = Metrics.value Metrics.serve_cache_hits;
    serve_cache_misses = Metrics.value Metrics.serve_cache_misses;
    serve_cache_evictions = Metrics.value Metrics.serve_cache_evictions;
    serve_jobs_submitted = Metrics.value Metrics.serve_jobs_submitted;
    serve_jobs_completed = Metrics.value Metrics.serve_jobs_completed;
    serve_jobs_failed = Metrics.value Metrics.serve_jobs_failed;
    serve_jobs_timeout = Metrics.value Metrics.serve_jobs_timeout;
    serve_jobs_rejected = Metrics.value Metrics.serve_jobs_rejected;
    serve_client_retries = Metrics.value Metrics.serve_client_retries;
    serve_cache_bytes = Metrics.value Metrics.serve_cache_bytes;
    serve_disk_cache_hits = Metrics.value Metrics.serve_disk_cache_hits;
    serve_disk_cache_misses = Metrics.value Metrics.serve_disk_cache_misses;
    serve_disk_cache_writes = Metrics.value Metrics.serve_disk_cache_writes;
    serve_disk_cache_corrupt = Metrics.value Metrics.serve_disk_cache_corrupt;
    serve_disk_cache_scrubbed =
      Metrics.value Metrics.serve_disk_cache_scrubbed;
    serve_shed_jobs = Metrics.value Metrics.serve_shed_jobs;
    serve_evicted_jobs = Metrics.value Metrics.serve_evicted_jobs;
    router_requests = Metrics.value Metrics.router_requests;
    router_failovers = Metrics.value Metrics.router_failovers;
    router_health_checks = Metrics.value Metrics.router_health_checks;
    router_dead_workers = Metrics.value Metrics.router_dead_workers;
    router_hedges = Metrics.value Metrics.router_hedges;
    router_hedge_wins = Metrics.value Metrics.router_hedge_wins;
    router_breaker_opens = Metrics.value Metrics.router_breaker_opens;
    router_breaker_half_opens =
      Metrics.value Metrics.router_breaker_half_opens;
    router_breaker_closes = Metrics.value Metrics.router_breaker_closes;
    fleet_restarts = Metrics.value Metrics.fleet_restarts;
    fleet_giveups = Metrics.value Metrics.fleet_giveups;
    simplify_requests = Metrics.value Metrics.simplify_requests;
    simplify_retries = Metrics.value Metrics.simplify_retries;
    simplify_fallbacks = Metrics.value Metrics.simplify_fallbacks;
    simplify_unsupported = Metrics.value Metrics.simplify_unsupported;
    simplify_removed_elements = Metrics.value Metrics.simplify_removed_elements;
    simplify_removed_terms = Metrics.value Metrics.simplify_removed_terms;
    points_per_pass = Metrics.histogram_buckets_of Metrics.points_per_pass;
  }

let is_zero t = t = zero

let factorizations t = t.lu_refactor + t.lu_factor

(* Field names in the JSON are the catalogue names of {!Metrics}, so the
   dump reads the same as the CLI table and the docs. *)
let fields =
  [
    ("lu.factor", (fun t -> t.lu_factor), fun t v -> { t with lu_factor = v });
    ("lu.symbolic", (fun t -> t.lu_symbolic), fun t v -> { t with lu_symbolic = v });
    ("lu.refactor", (fun t -> t.lu_refactor), fun t v -> { t with lu_refactor = v });
    ( "lu.refactor_fallback",
      (fun t -> t.refactor_fallbacks),
      fun t v -> { t with refactor_fallbacks = v } );
    ( "kernel.workspaces",
      (fun t -> t.kernel_workspaces),
      fun t v -> { t with kernel_workspaces = v } );
    ( "kernel.batch_ejects",
      (fun t -> t.kernel_batch_ejects),
      fun t v -> { t with kernel_batch_ejects = v } );
    ( "evaluator.calls",
      (fun t -> t.evaluator_calls),
      fun t v -> { t with evaluator_calls = v } );
    ("evaluator.memo_hit", (fun t -> t.memo_hits), fun t v -> { t with memo_hits = v });
    ( "evaluator.memo_miss",
      (fun t -> t.memo_misses),
      fun t v -> { t with memo_misses = v } );
    ("nodal.pattern_hit", (fun t -> t.pattern_hits), fun t v -> { t with pattern_hits = v });
    ( "nodal.pattern_miss",
      (fun t -> t.pattern_misses),
      fun t v -> { t with pattern_misses = v } );
    ( "adaptive.passes",
      (fun t -> t.adaptive_passes),
      fun t v -> { t with adaptive_passes = v } );
    ("adaptive.dry_passes", (fun t -> t.dry_passes), fun t v -> { t with dry_passes = v });
    ( "adaptive.deflated_passes",
      (fun t -> t.deflated_passes),
      fun t v -> { t with deflated_passes = v } );
    ( "interp.points_evaluated",
      (fun t -> t.points_evaluated),
      fun t v -> { t with points_evaluated = v } );
    ( "guard.singular_retries",
      (fun t -> t.guard_singular_retries),
      fun t v -> { t with guard_singular_retries = v } );
    ( "guard.nonfinite_retries",
      (fun t -> t.guard_nonfinite_retries),
      fun t v -> { t with guard_nonfinite_retries = v } );
    ( "guard.retry_giveups",
      (fun t -> t.guard_retry_giveups),
      fun t v -> { t with guard_retry_giveups = v } );
    ( "serve.cache_hit",
      (fun t -> t.serve_cache_hits),
      fun t v -> { t with serve_cache_hits = v } );
    ( "serve.cache_miss",
      (fun t -> t.serve_cache_misses),
      fun t v -> { t with serve_cache_misses = v } );
    ( "serve.cache_eviction",
      (fun t -> t.serve_cache_evictions),
      fun t v -> { t with serve_cache_evictions = v } );
    ( "serve.jobs_submitted",
      (fun t -> t.serve_jobs_submitted),
      fun t v -> { t with serve_jobs_submitted = v } );
    ( "serve.jobs_completed",
      (fun t -> t.serve_jobs_completed),
      fun t v -> { t with serve_jobs_completed = v } );
    ( "serve.jobs_failed",
      (fun t -> t.serve_jobs_failed),
      fun t v -> { t with serve_jobs_failed = v } );
    ( "serve.jobs_timeout",
      (fun t -> t.serve_jobs_timeout),
      fun t v -> { t with serve_jobs_timeout = v } );
    ( "serve.jobs_rejected",
      (fun t -> t.serve_jobs_rejected),
      fun t v -> { t with serve_jobs_rejected = v } );
    ( "serve.client_retries",
      (fun t -> t.serve_client_retries),
      fun t v -> { t with serve_client_retries = v } );
    ( "serve.cache_bytes",
      (fun t -> t.serve_cache_bytes),
      fun t v -> { t with serve_cache_bytes = v } );
    ( "serve.disk_cache_hit",
      (fun t -> t.serve_disk_cache_hits),
      fun t v -> { t with serve_disk_cache_hits = v } );
    ( "serve.disk_cache_miss",
      (fun t -> t.serve_disk_cache_misses),
      fun t v -> { t with serve_disk_cache_misses = v } );
    ( "serve.disk_cache_write",
      (fun t -> t.serve_disk_cache_writes),
      fun t v -> { t with serve_disk_cache_writes = v } );
    ( "serve.disk_cache_corrupt",
      (fun t -> t.serve_disk_cache_corrupt),
      fun t v -> { t with serve_disk_cache_corrupt = v } );
    ( "serve.disk_cache_scrubbed",
      (fun t -> t.serve_disk_cache_scrubbed),
      fun t v -> { t with serve_disk_cache_scrubbed = v } );
    ( "serve.shed_jobs",
      (fun t -> t.serve_shed_jobs),
      fun t v -> { t with serve_shed_jobs = v } );
    ( "serve.evicted_jobs",
      (fun t -> t.serve_evicted_jobs),
      fun t v -> { t with serve_evicted_jobs = v } );
    ( "router.requests",
      (fun t -> t.router_requests),
      fun t v -> { t with router_requests = v } );
    ( "router.failovers",
      (fun t -> t.router_failovers),
      fun t v -> { t with router_failovers = v } );
    ( "router.health_checks",
      (fun t -> t.router_health_checks),
      fun t v -> { t with router_health_checks = v } );
    ( "router.dead_workers",
      (fun t -> t.router_dead_workers),
      fun t v -> { t with router_dead_workers = v } );
    ( "router.hedges",
      (fun t -> t.router_hedges),
      fun t v -> { t with router_hedges = v } );
    ( "router.hedge_wins",
      (fun t -> t.router_hedge_wins),
      fun t v -> { t with router_hedge_wins = v } );
    ( "router.breaker_open",
      (fun t -> t.router_breaker_opens),
      fun t v -> { t with router_breaker_opens = v } );
    ( "router.breaker_half_open",
      (fun t -> t.router_breaker_half_opens),
      fun t v -> { t with router_breaker_half_opens = v } );
    ( "router.breaker_close",
      (fun t -> t.router_breaker_closes),
      fun t v -> { t with router_breaker_closes = v } );
    ( "fleet.restarts",
      (fun t -> t.fleet_restarts),
      fun t v -> { t with fleet_restarts = v } );
    ( "fleet.giveups",
      (fun t -> t.fleet_giveups),
      fun t v -> { t with fleet_giveups = v } );
    ( "simplify.requests",
      (fun t -> t.simplify_requests),
      fun t v -> { t with simplify_requests = v } );
    ( "simplify.retries",
      (fun t -> t.simplify_retries),
      fun t v -> { t with simplify_retries = v } );
    ( "simplify.fallbacks",
      (fun t -> t.simplify_fallbacks),
      fun t v -> { t with simplify_fallbacks = v } );
    ( "simplify.unsupported",
      (fun t -> t.simplify_unsupported),
      fun t v -> { t with simplify_unsupported = v } );
    ( "simplify.removed_elements",
      (fun t -> t.simplify_removed_elements),
      fun t v -> { t with simplify_removed_elements = v } );
    ( "simplify.removed_terms",
      (fun t -> t.simplify_removed_terms),
      fun t v -> { t with simplify_removed_terms = v } );
  ]

let histogram_key = "interp.points_per_pass"

let to_json t =
  let counters =
    List.map (fun (k, get, _) -> (k, Json.Num (float_of_int (get t)))) fields
  in
  let hist =
    Json.Arr
      (List.map
         (fun (le, n) ->
           Json.Obj [ ("le", Json.Num (float_of_int le)); ("count", Json.Num (float_of_int n)) ])
         t.points_per_pass)
  in
  Json.Obj (counters @ [ (histogram_key, hist) ])

let to_string t = Json.to_string (to_json t)

let of_json j =
  let counters =
    List.fold_left
      (fun acc (k, _, set) ->
        match Json.member k j with
        | Some v -> set acc (Json.to_int v)
        | None -> failwith (Printf.sprintf "Snapshot.of_json: missing field %s" k))
      zero fields
  in
  let hist =
    match Json.member histogram_key j with
    | None -> failwith ("Snapshot.of_json: missing field " ^ histogram_key)
    | Some v ->
        List.map
          (fun b ->
            match (Json.member "le" b, Json.member "count" b) with
            | Some le, Some n -> (Json.to_int le, Json.to_int n)
            | _ -> failwith "Snapshot.of_json: malformed histogram bucket")
          (Json.to_list v)
  in
  { counters with points_per_pass = hist }

let of_string s = of_json (Json.parse s)

let to_table t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  line "%-26s %8s\n" "counter" "value";
  List.iter (fun (k, get, _) -> line "%-26s %8d\n" k (get t)) fields;
  line "%-26s %8d   (refactor + scratch)\n" "lu.evaluations" (factorizations t);
  (match t.points_per_pass with
  | [] -> ()
  | buckets ->
      line "%s:\n" histogram_key;
      List.iter (fun (le, n) -> line "  <= %-6d points %8d batches\n" le n) buckets);
  Buffer.contents buf
