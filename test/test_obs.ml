(* Symref_obs: counters, tracing and snapshots.

   The counter assertions pin the pipeline's cost model on the paper's
   uA741 workload: 87 evaluator calls backed by 63 factorisations.  Each
   call factorises the points the shared table lacks in one batch — 63
   memo misses in all — and then serves every point from the table, so
   all 87 calls are memo hits. *)

module Metrics = Symref_obs.Metrics
module Trace = Symref_obs.Trace
module Snapshot = Symref_obs.Snapshot
module Json = Symref_obs.Json
module Nodal = Symref_mna.Nodal
module Ua741 = Symref_circuit.Ua741
module Reference = Symref_core.Reference
module Ef = Symref_numeric.Extfloat

let generate_ua741 () =
  Reference.generate Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let coeffs_of (r : Reference.t) =
  ( r.Reference.num.Symref_core.Adaptive.coeffs,
    r.Reference.den.Symref_core.Adaptive.coeffs )

(* Disabled counters stay at zero, and enabling them does not perturb the
   numbers: coefficients are bit-identical either way. *)
let test_disabled_zero_and_transparent () =
  Metrics.disable ();
  Metrics.reset ();
  let r_off = generate_ua741 () in
  let s_off = Snapshot.capture () in
  Alcotest.(check bool) "all counters zero while disabled" true
    (Snapshot.is_zero s_off);
  Metrics.enable ();
  Metrics.reset ();
  let r_on = generate_ua741 () in
  Metrics.disable ();
  let num_off, den_off = coeffs_of r_off and num_on, den_on = coeffs_of r_on in
  Alcotest.(check bool) "numerator bit-identical" true (num_off = num_on);
  Alcotest.(check bool) "denominator bit-identical" true (den_off = den_on)

(* The uA741 pipeline run: counter values and cross-counter invariants. *)
let test_ua741_counters () =
  Metrics.enable ();
  Metrics.reset ();
  let r = generate_ua741 () in
  Metrics.disable ();
  let s = Snapshot.capture () in
  let v = Snapshot.value s in
  Alcotest.(check int) "evaluator calls" 87 (v Metrics.evaluator_calls);
  Alcotest.(check int) "factorisations (memo misses)" 63 (v Metrics.memo_misses);
  (* Every point is served from the table once its call's batch has
     factorised the points the table lacked. *)
  Alcotest.(check int) "memo hits = calls" (v Metrics.evaluator_calls)
    (v Metrics.memo_hits);
  Alcotest.(check int) "replays + fallbacks = memo misses" (v Metrics.memo_misses)
    (v Metrics.lu_refactor + v Metrics.refactor_fallbacks);
  (* A clean run ejects nothing from its batches. *)
  Alcotest.(check int) "no batch ejects" 0 (v Metrics.kernel_batch_ejects);
  Alcotest.(check int) "factorizations = refactor + scratch"
    (Snapshot.factorizations s)
    (v Metrics.lu_refactor + v Metrics.lu_factor);
  Alcotest.(check int) "calls agree with Reference.total_evaluations"
    (Reference.total_evaluations r)
    (v Metrics.evaluator_calls);
  Alcotest.(check bool) "adaptive passes ran" true (v Metrics.adaptive_passes > 0);
  Alcotest.(check int) "histogram covers every batch" (v Metrics.adaptive_passes)
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       (Snapshot.buckets s Metrics.points_per_pass))

(* The trace file is valid JSON whose events are balanced: complete "X"
   events carrying a duration (B/E pairs would also be acceptable, but the
   pipeline only emits X). *)
let test_trace_file () =
  let file = Filename.temp_file "symref_trace" ".json" in
  Trace.start ~file;
  ignore (generate_ua741 ());
  let buffered = Trace.event_count () in
  Trace.finish ();
  Alcotest.(check bool) "events were buffered" true (buffered > 0);
  let doc = Json.parse_file file in
  Sys.remove file;
  let events =
    match Json.member "traceEvents" doc with
    | Some e -> Json.to_list e
    | None -> Alcotest.fail "missing traceEvents"
  in
  Alcotest.(check int) "file holds every buffered event" buffered
    (List.length events);
  let depth = ref 0 in
  List.iter
    (fun ev ->
      let ph = match Json.member "ph" ev with
        | Some p -> Json.to_str p
        | None -> Alcotest.fail "event without ph"
      in
      (match ph with
      | "B" -> incr depth
      | "E" ->
          decr depth;
          if !depth < 0 then Alcotest.fail "E without matching B"
      | "X" ->
          if Json.member "dur" ev = None then
            Alcotest.fail "complete event without dur"
      | "i" | "I" -> ()
      | p -> Alcotest.fail ("unexpected phase " ^ p));
      match Json.member "name" ev with
      | Some n -> ignore (Json.to_str n)
      | None -> Alcotest.fail "event without name")
    events;
  Alcotest.(check int) "B/E balanced" 0 !depth;
  let names =
    List.filter_map (fun ev -> Option.map Json.to_str (Json.member "name" ev)) events
  in
  let has n = List.mem n names in
  Alcotest.(check bool) "has adaptive.pass spans" true (has "adaptive.pass");
  Alcotest.(check bool) "has interp.batch spans" true (has "interp.batch");
  Alcotest.(check bool) "has factorisation spans" true
    (has "lu.refactor" || has "lu.factor" || has "lu.symbolic")

let test_snapshot_roundtrip () =
  Metrics.enable ();
  Metrics.reset ();
  ignore (generate_ua741 ());
  Metrics.disable ();
  let s = Snapshot.capture () in
  Metrics.reset ();
  Alcotest.(check bool) "non-trivial snapshot" false (Snapshot.is_zero s);
  let s' = Snapshot.of_string (Snapshot.to_string s) in
  Alcotest.(check bool) "of_string (to_string s) = s" true (s = s');
  let zero = Snapshot.capture () in
  Alcotest.(check bool) "reset snapshot is zero" true (Snapshot.is_zero zero);
  let z = Snapshot.of_string (Snapshot.to_string zero) in
  Alcotest.(check bool) "zero round-trips" true (z = zero)

(* The zero snapshot's JSON, byte for byte: BENCH_interp.json and serve
   [stats] replies embed this rendering, so its keys and their order are an
   interface. *)
let zero_snapshot_json =
  String.concat ""
    [
      "{\"lu.factor\":0,\"lu.symbolic\":0,\"lu.refactor\":0,";
      "\"lu.refactor_fallback\":0,\"kernel.workspaces\":0,";
      "\"kernel.batch_ejects\":0,\"evaluator.calls\":0,";
      "\"evaluator.memo_hit\":0,\"evaluator.memo_miss\":0,";
      "\"nodal.pattern_hit\":0,\"nodal.pattern_miss\":0,\"adaptive.passes\":0,";
      "\"adaptive.dry_passes\":0,\"adaptive.deflated_passes\":0,";
      "\"interp.points_evaluated\":0,\"guard.singular_retries\":0,";
      "\"guard.nonfinite_retries\":0,\"guard.retry_giveups\":0,";
      "\"serve.cache_hit\":0,\"serve.cache_miss\":0,";
      "\"serve.cache_eviction\":0,\"serve.jobs_submitted\":0,";
      "\"serve.jobs_completed\":0,\"serve.jobs_failed\":0,";
      "\"serve.jobs_timeout\":0,\"serve.jobs_rejected\":0,";
      "\"serve.client_retries\":0,\"serve.cache_bytes\":0,";
      "\"serve.disk_cache_hit\":0,\"serve.disk_cache_miss\":0,";
      "\"serve.disk_cache_write\":0,\"serve.disk_cache_corrupt\":0,";
      "\"serve.disk_cache_scrubbed\":0,\"serve.shed_jobs\":0,";
      "\"serve.evicted_jobs\":0,\"router.requests\":0,\"router.failovers\":0,";
      "\"router.health_checks\":0,\"router.dead_workers\":0,";
      "\"router.hedges\":0,\"router.hedge_wins\":0,\"router.breaker_open\":0,";
      "\"router.breaker_half_open\":0,\"router.breaker_close\":0,";
      "\"fleet.restarts\":0,\"fleet.giveups\":0,\"simplify.requests\":0,";
      "\"simplify.retries\":0,\"simplify.fallbacks\":0,";
      "\"simplify.unsupported\":0,\"simplify.removed_elements\":0,";
      "\"simplify.removed_terms\":0,\"interp.points_per_pass\":[]}";
    ]

let test_zero_snapshot_pinned () =
  Metrics.disable ();
  Metrics.reset ();
  Alcotest.(check string) "zero snapshot JSON" zero_snapshot_json
    (Snapshot.to_string (Snapshot.capture ()))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "disabled: zeros, identical results" `Quick
          test_disabled_zero_and_transparent;
        Alcotest.test_case "ua741 counters 87/63" `Quick test_ua741_counters;
        Alcotest.test_case "trace file is valid and balanced" `Quick
          test_trace_file;
        Alcotest.test_case "snapshot JSON round-trip" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "zero snapshot JSON pinned" `Quick
          test_zero_snapshot_pinned;
      ] );
  ]
