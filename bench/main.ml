(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper's evaluation:

     T1a  Table 1a : OTA coefficients, unit-circle interpolation (failure)
     T1b  Table 1b : OTA coefficients, fixed frequency scale 1e9
     T2a  Table 2a : uA741 denominator, 1st adaptive interpolation
     T2b  Table 2b : uA741 denominator, 2nd adaptive interpolation
     T3   Table 3  : uA741 denominator, 3rd+ adaptive interpolations
     F2   Fig. 2   : Bode diagrams, interpolated vs electrical simulator
     CPU  §3.3     : per-iteration cost, with vs without eq. 17 reduction
     X1   §3.2     : simultaneous vs frequency-only scaling (ablation)
     X2   §3.2     : sparse vs dense LU (ablation)

   `dune exec bench/main.exe` prints the tables and then runs one Bechamel
   timing bench per artefact.  `dune exec bench/main.exe -- tables` or
   `-- timing` selects one half. *)

module N = Symref_circuit.Netlist
module Ota = Symref_circuit.Ota
module Ua741 = Symref_circuit.Ua741
module Ladder = Symref_circuit.Rc_ladder
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Evaluator = Symref_core.Evaluator
module Naive = Symref_core.Naive
module Fixed_scale = Symref_core.Fixed_scale
module Adaptive = Symref_core.Adaptive
module Interp = Symref_core.Interp
module Reference = Symref_core.Reference
module Report = Symref_core.Report
module Scaling = Symref_core.Scaling
module Band = Symref_core.Band
module Sparse = Symref_linalg.Sparse
module Dense = Symref_linalg.Dense
module Grid = Symref_numeric.Grid
module Ef = Symref_numeric.Extfloat
module Obs = Symref_obs.Metrics
module Trace = Symref_obs.Trace
module Snapshot = Symref_obs.Snapshot
module Json = Symref_obs.Json

let section id title = Printf.printf "\n=== [%s] %s ===\n\n" id title

(* --- shared problems --- *)

let ota_problem () =
  Nodal.make Ota.circuit
    ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
    ~output:(Nodal.Out_node Ota.output)

let ua741_problem () =
  Nodal.make Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let ua741_with_sources () =
  N.extend Ua741.circuit (fun b ->
      N.Builder.vsrc b "srcp" ~p:Ua741.input_p ~m:"0" 0.5;
      N.Builder.vsrc b "srcm" ~p:Ua741.input_n ~m:"0" (-0.5))

let ua741_reference () =
  Reference.generate Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

(* --- table reproductions --- *)

let t1a () =
  section "T1a"
    "OTA of Fig. 1: unit-circle interpolation fails beyond the lowest orders";
  (* Table 1a is about the naive per-point-LU pipeline: with pattern reuse
     the round-off correlates across points and loses its Im-garbage
     signature, so reproduce it with an independent pivot search per point. *)
  let p =
    Nodal.make ~reuse:false Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output)
  in
  let num = Naive.run (Evaluator.of_nodal p ~num:true) in
  let den = Naive.run (Evaluator.of_nodal p ~num:false) in
  print_string (Report.naive_table ~num ~den ());
  Printf.printf
    "round-off symptom (Im comparable to Re): %.0f%% of numerator, %.0f%% of \
     denominator coefficients\n"
    (100. *. Naive.garbage_fraction num)
    (100. *. Naive.garbage_fraction den)

let t1b () =
  section "T1b" "OTA of Fig. 1: fixed frequency scale factor 1e9 (paper's choice)";
  let p = ota_problem () in
  print_string
    (Report.fixed_scale_table ~title:"denominator:"
       (Fixed_scale.run ~f:1e9 (Evaluator.of_nodal p ~num:false)));
  print_string
    (Report.fixed_scale_table ~title:"numerator:"
       (Fixed_scale.run ~f:1e9 (Evaluator.of_nodal p ~num:true)))

let t2_t3 () =
  let r = ua741_reference () in
  let den = r.Reference.den in
  section "T2a-T3" "uA741 denominator: successive adaptive interpolations";
  print_string (Report.adaptive_summary den);
  List.iter
    (fun p ->
      if p.Adaptive.fresh > 0 then begin
        print_newline ();
        print_string (Report.adaptive_pass_table ~pass:p.Adaptive.pass den)
      end)
    den.Adaptive.reports;
  (* The paper's signature: consecutive-coefficient ratios of 1e6..1e12. *)
  let ratios = Adaptive.coefficient_ratios den in
  let finite = Array.to_list ratios |> List.filter (fun x -> not (Float.is_nan x)) in
  let lo, hi = Symref_numeric.Stats.min_max finite in
  Printf.printf
    "\nconsecutive coefficient ratios span %.1f .. %.1f decades (paper: 6-12)\n"
    (-.hi) (-.lo);
  r

let f2 r =
  section "F2" "uA741 Bode diagrams: interpolated coefficients vs electrical simulator";
  let freqs = Grid.decades ~start:1. ~stop:1e8 ~per_decade:2 in
  let sim = Ac.bode (ua741_with_sources ()) ~out_p:Ua741.output freqs in
  let interp = Reference.bode r freqs in
  print_string (Report.bode_table ~interpolated:interp ~simulator:sim);
  let dmag, dph = Reference.bode_vs_simulator r sim in
  Printf.printf
    "\nmax |delta|: %.5f dB, %.5f deg (paper: 'perfect matching can be observed')\n"
    dmag dph

let cpu () =
  section "CPU"
    "per-iteration cost with eq. 17 reduction (paper: 3.9s / 2.3s / 0.9s shape)";
  let show config title =
    let ev = Evaluator.of_nodal (ua741_problem ()) ~num:false in
    let t0 = Sys.time () in
    let r = Adaptive.run ~config ev in
    let dt = Sys.time () -. t0 in
    Printf.printf "%s: %d passes, total %.1f ms\n" title r.Adaptive.passes (dt *. 1000.);
    List.iter
      (fun p ->
        Printf.printf "  pass %d: %3d points, %3d LU evaluations%s\n" p.Adaptive.pass
          p.Adaptive.points p.Adaptive.evaluations
          (if p.Adaptive.fresh > 0 then "" else "  (no new coefficients)"))
      r.Adaptive.reports
  in
  show Adaptive.default_config "with reduction (eq. 17)";
  show { Adaptive.default_config with Adaptive.reduce = false } "without reduction";
  print_endline
    "(the reduced run's point count falls pass over pass, as in the paper's\n\
     3.9 -> 2.3 -> 0.9 s sequence; the unreduced run re-interpolates all n+1\n\
     points every time)"

let x1 () =
  section "X1" "ablation: simultaneous f&g scaling (eq. 13) vs frequency-only scaling";
  let run policy =
    let ev = Evaluator.of_nodal (ua741_problem ()) ~num:false in
    let config = { Adaptive.default_config with Adaptive.scaling_policy = policy } in
    let r = Adaptive.run ~config ev in
    let max_f =
      List.fold_left
        (fun acc p -> Float.max acc p.Adaptive.scale.Scaling.f)
        0. r.Adaptive.reports
    in
    (r, max_f)
  in
  let split, split_f = run `Split in
  let fonly, fonly_f = run `Frequency_only in
  Printf.printf "%-18s  %-8s  %-8s  %-12s  %-10s\n" "policy" "passes" "order"
    "max f used" "converged";
  Printf.printf "%-18s  %-8d  %-8d  %-12.3g  %-10b\n" "simultaneous"
    split.Adaptive.passes split.Adaptive.effective_order split_f
    split.Adaptive.converged;
  Printf.printf "%-18s  %-8d  %-8d  %-12.3g  %-10b\n" "frequency-only"
    fonly.Adaptive.passes fonly.Adaptive.effective_order fonly_f
    fonly.Adaptive.converged;
  Printf.printf
    "(frequency-only scaling pushes f to %.2g; the paper caps factors at ~1e18 \
     via simultaneous scaling, which stays at %.2g here)\n"
    fonly_f split_f

let x2 () =
  section "X2" "ablation: sparse vs dense LU on the interpolation inner loop";
  Printf.printf "%-8s  %-12s  %-12s  %-8s\n" "order" "sparse (us)" "dense (us)" "ratio";
  List.iter
    (fun n ->
      (* A tridiagonal admittance matrix, the ladder's pattern. *)
      let b = Sparse.create n in
      let g = 1e-3 and c = 1e-12 in
      for i = 0 to n - 1 do
        Sparse.add b i i { Complex.re = 2. *. g; im = c *. 1e9 };
        if i > 0 then Sparse.add b i (i - 1) { Complex.re = -.g; im = 0. };
        if i < n - 1 then Sparse.add b i (i + 1) { Complex.re = -.g; im = 0. }
      done;
      let dense = Sparse.to_dense b in
      let time f =
        let reps = 64 in
        let t0 = Sys.time () in
        for _ = 1 to reps do
          f ()
        done;
        (Sys.time () -. t0) /. float_of_int reps *. 1e6
      in
      let ts = time (fun () -> ignore (Sparse.det (Sparse.factor b))) in
      let td = time (fun () -> ignore (Dense.det (Dense.factor dense))) in
      Printf.printf "%-8d  %-12.1f  %-12.1f  %-8.1f\n" n ts td (td /. ts))
    [ 8; 16; 32; 64; 128; 256 ]

(* --- JSON pipeline benchmark ------------------------------------------------

   `main.exe json` (and its tiny `smoke` variant wired into the test suite)
   times the evaluation pipeline of this repository against its own
   baselines and writes machine-readable results to BENCH_interp.json, so
   successive PRs accumulate a perf trajectory:

     - full Markowitz factorisation per point vs one batch of one per
       point vs one batch per sweep (per-evaluation cost, three rungs),
       with the elimination program's instruction counts,
     - the median time of one pattern learning,
     - seed-style duplicated num/den adaptive runs vs the shared memoised
       evaluator, at equal coefficients,
     - a Symref_obs counter snapshot of one pipeline run, and the measured
       overhead of enabling counters / tracing, median-of-5 per mode,
     - the minor-heap words of one reference generation and one health
       check per circuit, and of one serve job on a miss and on a hit
       (schema v13, documented in doc/pipeline.mld).  *)

module Random_net = Symref_circuit.Random_net
module Uc = Symref_dft.Unit_circle

let wall = Unix.gettimeofday

let time_wall reps f =
  ignore (f ());
  (* warm: pattern + memo caches, allocator *)
  let t0 = wall () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (wall () -. t0) /. float_of_int reps

(* [f ()] and the words it allocated on the minor heap.  Allocation is a
   deterministic count, so one call is the measurement. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Median over independent timing runs: a single [time_wall] sample sits at
   the mercy of scheduler noise, which on near-identical modes (counters
   off vs on) can even come out negative as an "overhead".  The median of
   an odd number of runs discards outliers in both directions. *)
let median_wall ~runs reps f =
  let samples = Array.init runs (fun _ -> time_wall reps f) in
  Array.sort compare samples;
  samples.(runs / 2)

type jcircuit = {
  jname : string;
  jcircuit : N.t;
  jinput : Nodal.input;
  joutput : Nodal.output;
}

let json_circuits ~smoke =
  let ladder_n = if smoke then 12 else 64 in
  let random_n = if smoke then 10 else 48 in
  let base =
    [
      {
        jname = "ota";
        jcircuit = Ota.circuit;
        jinput = Nodal.V_diff (Ota.input_p, Ota.input_n);
        joutput = Nodal.Out_node Ota.output;
      };
      {
        jname = "ua741";
        jcircuit = Ua741.circuit;
        jinput = Nodal.V_diff (Ua741.input_p, Ua741.input_n);
        joutput = Nodal.Out_node Ua741.output;
      };
      {
        jname = Printf.sprintf "rc-ladder-%d" ladder_n;
        jcircuit = Ladder.circuit ladder_n;
        jinput = Nodal.Vsrc_element "vin";
        joutput = Nodal.Out_node Ladder.output_node;
      };
      {
        jname = Printf.sprintf "random-net-%d" random_n;
        jcircuit = Random_net.circuit ~seed:7 ~nodes:random_n ();
        jinput = Nodal.Vsrc_element "vin";
        joutput = Nodal.Out_node (Random_net.output_node ~seed:7 ~nodes:random_n);
      };
    ]
  in
  if smoke then List.filteri (fun i _ -> i <> 1) base (* ua741 adaptive is slow-ish *)
  else base

(* --- serve benchmark: scheduler + content-addressed cache -------------------

   Pushes M distinct and N duplicate netlists through the in-process batch
   API (`Symref_serve.Batch`): the distinct files measure scheduler
   throughput, the duplicates measure the content-addressed cache (their
   payloads are answered from it once the first copy has been computed).
   Reported as the "serve" section of BENCH_interp.json (schema v3) and
   runnable standalone as `main.exe serve-smoke`.  The section also counts
   the minor-heap words of one job through [Service.run_job] on the calling
   domain, over the distinct netlists: the first run of each is a miss,
   the second a hit (schema v13). *)

let ota_with_sources () =
  N.extend Ota.circuit (fun b ->
      N.Builder.vsrc b "srcp" ~p:Ota.input_p ~m:"0" 0.5;
      N.Builder.vsrc b "srcm" ~p:Ota.input_n ~m:"0" (-0.5))

let run_serve ~smoke =
  section (if smoke then "SERVE-SMOKE" else "SERVE")
    "batch service: job scheduler + content-addressed result cache";
  let ladder n = (Printf.sprintf "ladder-%d" n, Ladder.circuit n) in
  let distinct =
    if smoke then [ ("ota", ota_with_sources ()); ladder 8; ladder 12 ]
    else
      [
        ("ota", ota_with_sources ());
        ("ua741", ua741_with_sources ());
        ladder 8;
        ladder 16;
        ladder 24;
        ladder 32;
      ]
  in
  let duplicates = if smoke then 4 else 12 in
  let texts = List.map (fun (_, c) -> Symref_spice.Writer.to_string c) distinct in
  let words_per_job =
    let svc = Symref_serve.Service.create () in
    let run text =
      let reply, words =
        minor_words (fun () ->
            Symref_serve.Service.run_job svc
              { Symref_serve.Protocol.default_job with Symref_serve.Protocol.netlist = `Text text })
      in
      if reply.Symref_serve.Protocol.status <> Symref_serve.Protocol.Ok then
        failwith "serve bench: a job failed";
      words
    in
    let miss = List.fold_left (fun acc text -> acc +. run text) 0. texts in
    let hit = List.fold_left (fun acc text -> acc +. run text) 0. texts in
    Symref_serve.Service.shutdown svc;
    let n = float_of_int (List.length texts) in
    (miss /. n, hit /. n)
  in
  let dir = Filename.temp_dir "symref-serve-bench" "" in
  let write name text =
    let oc = open_out (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  List.iteri (fun i ((name, _), text) -> write (Printf.sprintf "m%02d_%s.cir" i name) text)
    (List.combine distinct texts);
  (* Duplicates are fresh files with the same content: only the
     content-addressed cache can recognise them. *)
  let first_text = List.hd texts in
  for i = 1 to duplicates do
    write (Printf.sprintf "z_dup%02d.cir" i) first_text
  done;
  let t0 = wall () in
  let report = Symref_serve.Batch.run dir in
  let dt = wall () -. t0 in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let jobs = report.Symref_serve.Batch.files in
  let hits = report.Symref_serve.Batch.cached in
  let misses = jobs - hits in
  let jobs_per_s = float_of_int jobs /. dt in
  Printf.printf
    "batch: %d jobs (%d distinct + %d duplicates) in %.1f ms -> %.0f jobs/s\n\
     cache: %d hits, %d misses (hit ratio %.2f); failures %d\n\
     minor words per job: miss %.0f, hit %.0f\n"
    jobs (List.length distinct) duplicates (dt *. 1000.) jobs_per_s hits misses
    (float_of_int hits /. float_of_int jobs)
    report.Symref_serve.Batch.failed (fst words_per_job) (snd words_per_job);
  Printf.sprintf
    "  \"serve\": { \"jobs\": %d, \"distinct\": %d, \"duplicates\": %d,\n\
    \    \"wall_ms\": %.2f, \"jobs_per_s\": %.1f, \"failed\": %d,\n\
    \    \"cache\": { \"hits\": %d, \"misses\": %d, \"hit_ratio\": %.3f },\n\
    \    \"minor_words_per_job\": { \"miss\": %.0f, \"hit\": %.0f } }\n"
    jobs (List.length distinct) duplicates (dt *. 1000.) jobs_per_s
    report.Symref_serve.Batch.failed hits misses
    (float_of_int hits /. float_of_int jobs)
    (fst words_per_job) (snd words_per_job)

(* --- fleet-chaos benchmark: resilience under crash-loop + tarpit ------------

   The acceptance rung for the resilience layer: a three-worker fleet on
   fixed Unix sockets under a {!Symref_serve.Supervisor}, with one worker
   crash-looping (SYMREF_FAULT [serve.crash], deterministic skip/count —
   it dies mid-connection every Nth submit and is restarted on the same
   socket) and one worker tarpitted ([serve.slow_worker] sleeps before
   every submit).  The parent drives the library {!Symref_serve.Router}
   with hedging enabled and tight worker admission (one worker, no queue),
   so two simultaneous misses to one worker shed one of them.  The rung
   asserts the layer's whole contract at once: zero client-visible errors
   and byte-identical payloads against a healthy baseline, while the
   counters prove the machinery engaged (hedge wins, breaker transitions,
   supervisor restarts, worker-side shed jobs).  Reported as the
   "fleet_chaos" section of BENCH_interp.json (schema v8) and runnable
   standalone as `main.exe fleet-chaos`. *)

module Sproto = Symref_serve.Protocol
module Stransport = Symref_serve.Transport
module Srouter = Symref_serve.Router
module Sclient = Symref_serve.Client
module Ssup = Symref_serve.Supervisor

(* Distinct eight-section RC ladders: same topology and cost, different
   element values, so every key is a distinct cache entry of equal compute
   weight. *)
let key_netlist ?(sections = 8) i =
  let b = Buffer.create 256 in
  Printf.bprintf b "loadkey%02d\n" i;
  Printf.bprintf b "v1 in 0 ac 1\n";
  for s = 1 to sections do
    let prev = if s = 1 then "in" else Printf.sprintf "n%d" (s - 1) in
    let node = if s = sections then "out" else Printf.sprintf "n%d" s in
    Printf.bprintf b "r%d %s %s %.3fk\n" s prev node
      (1. +. (0.01 *. float_of_int i));
    Printf.bprintf b "c%d %s 0 1n\n" s node
  done;
  Buffer.add_string b ".end\n";
  Buffer.contents b

let chaos_sleepf s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Spawn one fleet worker on a fixed Unix socket with a small admission
   window and an optional fault plan in its environment. *)
let spawn_chaos_worker ~sock ~fault =
  let keep s = not (String.length s >= 12 && String.sub s 0 12 = "SYMREF_FAULT") in
  let env =
    List.filter keep (Array.to_list (Unix.environment ()))
    @ (match fault with None -> [] | Some f -> [ "SYMREF_FAULT=" ^ f ])
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name; "serve-worker"; sock; "1"; "0" |]
    (Array.of_list env) Unix.stdin Unix.stdout Unix.stderr

(* A worker is ready once a connection gets its banner. *)
let chaos_wait_ready ?(timeout_s = 10.) addr =
  let deadline = wall () +. timeout_s in
  let rec go () =
    match Sclient.connect ~addr with
    | c ->
        Sclient.close c;
        true
    | exception
        (Unix.Unix_error _ | Sys_error _ | Symref_serve.Errors.Error _) ->
        if wall () >= deadline then false
        else begin
          chaos_sleepf 0.02;
          go ()
        end
  in
  go ()

let chaos_request addr request =
  Sclient.with_connection ~addr (fun c -> Sclient.request c request)

(* A worker-side counter, read back over the Stats op (the service embeds
   the full metrics snapshot in its stats body). *)
let chaos_worker_counter addr name =
  match chaos_request addr Sproto.Stats with
  | reply -> (
      match Json.member "counters" reply.Sproto.body with
      | Some c -> (
          match Json.member name c with Some v -> Json.to_int v | None -> 0)
      | None -> 0)
  | exception _ -> 0

let run_fleet_chaos ~smoke =
  section
    (if smoke then "FLEET-CHAOS-SMOKE" else "FLEET-CHAOS")
    "fleet chaos: crash-loop + tarpit behind hedging, breakers, supervision";
  let threads = if smoke then 3 else 6 in
  let per_thread = if smoke then 8 else 30 in
  let slow_ms = if smoke then 80 else 120 in
  let crash_skip = if smoke then 5 else 20 in
  let base_keys = if smoke then 4 else 8 in
  let dir = Filename.temp_dir "symref-chaos" "" in
  let sock i = Filename.concat dir (Printf.sprintf "w%d.sock" i) in
  let addrs = List.init 3 (fun i -> Stransport.parse (sock i)) in
  (* Key set: grown until every worker owns at least one key on the
     {e actual} ring (placement hashes the socket addresses), so the
     tarpitted worker is guaranteed primary for some jobs (the hedge
     trigger) and the crash-looper is guaranteed submissions. *)
  let job_of_key i =
    {
      Sproto.default_job with
      Sproto.netlist = `Text (key_netlist i);
      id = Some (Printf.sprintf "chaos%02d" i);
    }
  in
  let keys =
    let probe = Srouter.create addrs in
    let covered k =
      let owners =
        List.init k (fun i ->
            List.hd (Srouter.route probe (Srouter.job_key (job_of_key i))))
      in
      List.for_all (fun w -> List.mem w owners) [ 0; 1; 2 ]
    in
    let rec grow k = if k >= 64 || covered k then k else grow (k + 1) in
    grow base_keys
  in
  let jobs = Array.init keys job_of_key in
  (* Healthy baseline payloads, from a pristine in-process service: a
     worker's payload crosses the wire byte for byte. *)
  let baseline =
    let svc = Symref_serve.Service.create () in
    let payloads =
      Array.map
        (fun j ->
          let reply = Symref_serve.Service.run_job svc j in
          if reply.Sproto.status <> Sproto.Ok then
            failwith "fleet-chaos: baseline service failed a job";
          Json.to_string reply.Sproto.body)
        jobs
    in
    Symref_serve.Service.shutdown svc;
    payloads
  in
  (* The chaotic fleet: worker 0 healthy, worker 1 crash-looping, worker 2
     tarpitted.  Fixed Unix sockets make restarts transparent to the ring. *)
  let faults =
    [|
      None;
      Some (Printf.sprintf "serve.crash:skip=%d,count=1" crash_skip);
      Some (Printf.sprintf "serve.slow_worker:every=1,payload=%d" slow_ms);
    |]
  in
  Obs.reset ();
  Obs.enable ();
  let sup =
    Ssup.create
      ~config:{ Ssup.default_config with Ssup.crash_budget = 1000 }
      ~slots:3
      ~spawn:(fun ~slot -> spawn_chaos_worker ~sock:(sock slot) ~fault:faults.(slot))
      ()
  in
  let monitor = Ssup.run sup in
  List.iter (fun a -> ignore (chaos_wait_ready a)) addrs;
  let router =
    (* Aggressive breaker for the rung: one mid-connection crash opens the
       worker's circuit, and the short cooldown lets the half-open probe
       and re-close land inside the bench window. *)
    Srouter.create
      ~breaker:
        { Srouter.threshold = 1; cooldown_ms = 100.; max_cooldown_ms = 10_000. }
      ~hedge:
        (Some { Srouter.after_ms_min = 30.; after_ms_max = 30. })
      addrs
  in
  let lock = Mutex.create () in
  let errors = ref 0 and mismatches = ref 0 and retries = ref 0 in
  let lats = ref [] in
  let bump r = Mutex.lock lock; incr r; Mutex.unlock lock in
  let client _t =
    (* Every thread walks the same key sequence, so duplicate bursts reach
       the fleet concurrently.  The router spreads them over the workers;
       whatever a worker still sheds (one worker + queue 0, typed
       Overloaded) the client absorbs by honoring the retry_after hint —
       chaos must stay invisible to callers. *)
    for n = 0 to per_thread - 1 do
      let k = n mod keys in
      let t0 = wall () in
      let rec attempt left =
        if left = 0 then bump errors
        else
          let r = Srouter.forward router jobs.(k) in
          if r.Sproto.status = Sproto.Ok then begin
            if Json.to_string r.Sproto.body <> baseline.(k) then
              bump mismatches
          end
          else if
            r.Sproto.status = Sproto.Overloaded
            || r.Sproto.status = Sproto.Busy
          then begin
            bump retries;
            let after =
              match Sproto.retry_after_ms r with Some ms -> ms | None -> 10.
            in
            chaos_sleepf (Float.min after 50. /. 1000.);
            attempt (left - 1)
          end
          else if Sproto.error_kind r = Some "connection" then begin
            (* Whole-ring transient (every candidate mid-restart): back
               off briefly and go again. *)
            bump retries;
            chaos_sleepf 0.05;
            attempt (left - 1)
          end
          else bump errors
      in
      attempt 200;
      let ms = (wall () -. t0) *. 1000. in
      Mutex.lock lock;
      lats := ms :: !lats;
      Mutex.unlock lock
    done
  in
  let kids = List.init threads (fun t -> Thread.create client t) in
  List.iter Thread.join kids;
  (* Deterministic shed probe.  The main run need not shed at all: the
     router spreads concurrent duplicates over the workers.  So two
     cache-miss submits go to the tarpit, written back to back on two
     connections opened first.  Its pre-admission sleep holds both for the
     same [slow_ms], so they reach its single admission slot (one worker,
     queue 0) microseconds apart, and a 64-section ladder computes for
     milliseconds: one computes, the other is shed.  Probe threads that
     each connect first can arrive further apart than a short job takes,
     and then neither is shed. *)
  let slow_addr = List.nth addrs 2 in
  (try
     let conns = List.init 2 (fun _ -> Sclient.connect ~addr:slow_addr) in
     Fun.protect
       ~finally:(fun () -> List.iter Sclient.close conns)
       (fun () ->
         List.iteri
           (fun i c ->
             Sclient.send c
               (Sproto.Submit
                  {
                    Sproto.default_job with
                    Sproto.netlist = `Text (key_netlist ~sections:64 (100 + i));
                    id = Some (Printf.sprintf "shedprobe%d" i);
                  }))
           conns;
         List.iter (fun c -> ignore (Sclient.recv c)) conns)
   with _ -> ());
  (* Worker-side shed totals (each incarnation counts from zero; the sum
     across live workers is the proof shedding engaged at all). *)
  let shed =
    List.fold_left
      (fun acc a ->
        ignore (chaos_wait_ready a);
        acc + chaos_worker_counter a "serve.shed_jobs")
      0 addrs
  in
  let restarts = Ssup.restarts sup in
  let counter = Snapshot.value (Snapshot.capture ()) in
  Ssup.stop ~grace_s:2.0
    ~notify:(fun ~slot ~pid:_ ->
      try ignore (chaos_request (Stransport.parse (sock slot)) Sproto.Shutdown)
      with _ -> ())
    sup;
  Thread.join monitor;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  Obs.disable ();
  Obs.reset ();
  let lats = Array.of_list !lats in
  Array.sort compare lats;
  let pct p =
    let n = Array.length lats in
    if n = 0 then Float.nan
    else lats.(Int.min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let total = threads * per_thread in
  Printf.printf
    "chaos: %d jobs over %d threads, %d keys -> p50 %.2f ms  p99 %.2f ms\n\
     contract: errors %d, payload mismatches %d (client retries %d)\n\
     machinery: hedges %d (wins %d), failovers %d, breakers %d/%d/%d \
     (open/half/close), restarts %d, shed %d\n"
    total threads keys (pct 0.50) (pct 0.99) !errors !mismatches !retries
    (counter Obs.router_hedges) (counter Obs.router_hedge_wins)
    (counter Obs.router_failovers) (counter Obs.router_breaker_opens)
    (counter Obs.router_breaker_half_opens) (counter Obs.router_breaker_closes)
    restarts shed;
  Printf.sprintf
    "  \"fleet_chaos\": { \"workers\": 3, \"threads\": %d, \"keys\": %d, \
     \"jobs\": %d,\n\
    \    \"errors\": %d, \"mismatches\": %d, \"retries\": %d, \"p50_ms\": \
     %.3f, \"p99_ms\": %.3f,\n\
    \    \"hedges\": %d, \"hedge_wins\": %d, \"failovers\": %d,\n\
    \    \"breaker_opens\": %d, \"breaker_half_opens\": %d, \
     \"breaker_closes\": %d,\n\
    \    \"restarts\": %d, \"giveups\": %d, \"shed_jobs\": %d },\n"
    threads keys total !errors !mismatches !retries (pct 0.50) (pct 0.99)
    (counter Obs.router_hedges) (counter Obs.router_hedge_wins)
    (counter Obs.router_failovers) (counter Obs.router_breaker_opens)
    (counter Obs.router_breaker_half_opens) (counter Obs.router_breaker_closes)
    restarts (counter Obs.fleet_giveups) shed

(* --- simplify benchmark: reference-driven symbolic compression --------------

   Runs the lib/simplify pipeline (SBG -> SDG -> SAG under a 0.5 dB / 2 deg
   budget, re-verified against the numerical reference over the full grid)
   on the symbolic-sized built-in workloads and records the term compression
   ratio, the certified worst-case error and the wall time.  Reported as the
   "simplify" section of BENCH_interp.json (schema v7) and runnable
   standalone as `main.exe simplify-smoke`. *)

module Pipeline = Symref_simplify.Pipeline
module Sbudget = Symref_simplify.Budget
module Certificate = Symref_simplify.Certificate
module Miller = Symref_circuit.Two_stage_miller

let run_simplify ~smoke =
  section
    (if smoke then "SIMPLIFY-SMOKE" else "SIMPLIFY")
    "reference-driven simplification: term compression under an error budget";
  let targets =
    let ota =
      ( "ota", Ota.circuit,
        Nodal.V_diff (Ota.input_p, Ota.input_n),
        Nodal.Out_node Ota.output )
    in
    let miller =
      ( "two-stage-miller", Miller.circuit (),
        Nodal.V_diff (Miller.input_p, Miller.input_n),
        Nodal.Out_node Miller.output )
    in
    if smoke then [ ota ] else [ ota; miller ]
  in
  let budget = Sbudget.v ~db:0.5 ~deg:2. () in
  let freqs = Grid.decades ~start:1. ~stop:1e8 ~per_decade:4 in
  let n = List.length targets in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "  \"simplify\": { \"budget_db\": 0.5, \"budget_deg\": 2, \"circuits\": [\n";
  List.iteri
    (fun i (name, c, input, output) ->
      let t0 = wall () in
      let r = Pipeline.run c ~input ~output ~budget ~freqs in
      let dt = (wall () -. t0) *. 1000. in
      let exact = r.Pipeline.exact_num_terms + r.Pipeline.exact_den_terms in
      let kept = r.Pipeline.num_terms + r.Pipeline.den_terms in
      let ratio = float_of_int exact /. float_of_int (Int.max 1 kept) in
      let cert = r.Pipeline.certificate in
      Printf.printf
        "%-18s dim %2d: terms %5d -> %4d (%.1fx)  attempts %d  err %.3f dB / \
         %.3f deg  within %b  %.1f ms\n"
        name r.Pipeline.dim exact kept ratio r.Pipeline.attempts
        cert.Certificate.max_db cert.Certificate.max_deg
        cert.Certificate.within_budget dt;
      Printf.bprintf buf
        "    { \"name\": \"%s\", \"dim\": %d, \"exact_terms\": %d, \"terms\": \
         %d, \"compression\": %.3f,\n\
        \      \"attempts\": %d, \"fallback\": %b, \"max_db\": %.5f, \
         \"max_deg\": %.5f, \"within_budget\": %b, \"wall_ms\": %.2f }%s\n"
        name r.Pipeline.dim exact kept ratio r.Pipeline.attempts
        r.Pipeline.fallback cert.Certificate.max_db cert.Certificate.max_deg
        cert.Certificate.within_budget dt
        (if i = n - 1 then "" else ","))
    targets;
  Buffer.add_string buf "  ] },\n";
  Buffer.contents buf

let coeffs_match (a : Adaptive.result) (b : Adaptive.result) =
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if a.Adaptive.established.(i) && b.Adaptive.established.(i) then
        if not (Ef.is_zero x && Ef.is_zero b.Adaptive.coeffs.(i)) then
          if not (Ef.approx_equal ~rel:1e-5 x b.Adaptive.coeffs.(i)) then ok := false)
    a.Adaptive.coeffs;
  !ok

let run_json ~smoke =
  let reps = if smoke then 2 else 5 in
  let eval_reps = if smoke then 8 else 64 in
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  section (if smoke then "SMOKE" else "JSON")
    "pipeline benchmark: full-factor vs batched replay, shared num/den";
  out "{\n  \"schema\": \"symref/bench-interp/v13\",\n";
  out "  \"mode\": \"%s\",\n" (if smoke then "smoke" else "full");
  out "  \"circuits\": [\n";
  let ncirc = List.length (json_circuits ~smoke) in
  List.iteri
    (fun ci jc ->
      let p_full = Nodal.make ~reuse:false jc.jcircuit ~input:jc.jinput ~output:jc.joutput in
      let p = Nodal.make jc.jcircuit ~input:jc.jinput ~output:jc.joutput in
      let dim = Nodal.dimension p in
      let f = 1. /. Nodal.mean_capacitance p and g = 1. /. Nodal.mean_conductance p in
      let k = Nodal.order_bound p + 1 in
      (* Three rungs of the same evaluation, bit-identical values: a full
         Markowitz factorisation per point, one batch of one per point (how
         guard retries and moved probes are served), and one batch over
         the unit-circle points of a first pass. *)
      let npts = (k / 2) + 2 in
      let points = Array.init npts (fun j -> Uc.point (Int.max k 4) j) in
      let sweep p () =
        for j = 0 to npts - 1 do
          ignore (Nodal.eval ~f ~g p points.(j))
        done
      in
      let batch_sweep () = ignore (Nodal.eval_batch ~f ~g p points) in
      let per_point t = t /. float_of_int npts *. 1e6 in
      let t_full = median_wall ~runs:5 eval_reps (sweep p_full) in
      let t_single = median_wall ~runs:5 eval_reps (sweep p) in
      let t_batch = median_wall ~runs:5 eval_reps batch_sweep in
      (* Whole reference generation: seed path vs pipeline, equal results.
         The seed factorises every point from scratch, and each side draws
         from a table of its own. *)
      let seed () =
        let p = Nodal.make ~reuse:false jc.jcircuit ~input:jc.jinput ~output:jc.joutput in
        ( Adaptive.run (Evaluator.of_nodal p ~num:true),
          Adaptive.run (Evaluator.of_nodal p ~num:false) )
      in
      let pipeline () =
        Reference.generate jc.jcircuit ~input:jc.jinput ~output:jc.joutput
      in
      let t_seed = time_wall reps seed in
      let t_pipeline = time_wall reps pipeline in
      let seed_num, seed_den = seed () in
      let r_pipe, words_generate = minor_words pipeline in
      let _, words_health = minor_words (fun () -> Reference.health r_pipe) in
      let equal =
        coeffs_match seed_num r_pipe.Reference.num
        && coeffs_match seed_den r_pipe.Reference.den
      in
      Printf.printf
        "%-16s dim %3d: eval %8.1f -> %7.1f -> %7.1f us/pt (batch %4.2fx)   \
         reference %8.2f -> %7.2f ms (%4.1fx)  equal %b\n"
        jc.jname dim (per_point t_full) (per_point t_single) (per_point t_batch)
        (t_single /. t_batch) (t_seed *. 1000.) (t_pipeline *. 1000.)
        (t_seed /. t_pipeline) equal;
      out "    {\n      \"name\": \"%s\", \"dim\": %d, \"order_bound\": %d,\n"
        jc.jname dim (Nodal.order_bound p);
      out
        "      \"eval_us_per_point\": { \"full_factor\": %.3f, \"single\": %.3f, \
         \"batched\": %.3f, \"speedup\": %.3f, \"batch_speedup\": %.3f },\n"
        (per_point t_full) (per_point t_single) (per_point t_batch)
        (t_full /. t_batch) (t_single /. t_batch);
      out "      \"batched_us_per_point\": %.3f,\n" (per_point t_batch);
      (* The elimination program the batched engine replays, and what one
         learning of it costs: [elimination_program] on a freshly made
         problem (the stamping, the Markowitz analysis, the slot map and
         the batch workspace), the make outside the clock. *)
      (match Nodal.elimination_program ~f ~g p with
      | None -> ()
      | Some prog ->
          let sum a = Array.fold_left (fun acc x -> acc + Array.length x) 0 a in
          let updates =
            Array.fold_left (fun acc t -> acc + sum t) 0
              prog.Symref_linalg.Kernel.elim_upd
          in
          let learnings = if smoke then 3 else 41 in
          let learn =
            Array.init learnings (fun _ ->
                let fresh = Nodal.make jc.jcircuit ~input:jc.jinput ~output:jc.joutput in
                let t0 = wall () in
                ignore (Nodal.elimination_program ~f ~g fresh);
                wall () -. t0)
          in
          Array.sort compare learn;
          let learn_us = learn.(learnings / 2) *. 1e6 in
          Printf.printf "%-16s learn %.1f us per pattern\n" jc.jname learn_us;
          out
            "      \"program\": { \"steps\": %d, \"slots\": %d, \"fill\": %d, \
             \"lower_len\": %d, \"elim_rows\": %d, \"elim_updates\": %d, \
             \"learn_us\": %.1f },\n"
            prog.Symref_linalg.Kernel.n prog.Symref_linalg.Kernel.nslots
            prog.Symref_linalg.Kernel.fill prog.Symref_linalg.Kernel.lower_len
            (sum prog.Symref_linalg.Kernel.elim_row)
            updates learn_us);
      out "      \"reference_ms\": { \"seed\": %.4f, \"pipeline\": %.4f, \"speedup\": %.3f, \"coeffs_match\": %b },\n"
        (t_seed *. 1000.) (t_pipeline *. 1000.) (t_seed /. t_pipeline) equal;
      Printf.printf "%-16s minor words: generate %.0f, health %.0f\n" jc.jname words_generate
        words_health;
      out "      \"minor_words\": { \"generate\": %.0f, \"health\": %.0f },\n" words_generate
        words_health;
      out "      \"lu_evaluations\": { \"seed\": %d, \"pipeline\": %d }\n"
        (seed_num.Adaptive.evaluations + seed_den.Adaptive.evaluations)
        (Reference.total_evaluations r_pipe);
      out "    }%s\n" (if ci = ncirc - 1 then "" else ","))
    (json_circuits ~smoke);
  out "  ],\n";
  (* Shared num/den evaluator: distinct factorisations vs total calls. *)
  let shared_target = if smoke then List.hd (json_circuits ~smoke) else List.nth (json_circuits ~smoke) 1 in
  let sp =
    Nodal.make shared_target.jcircuit ~input:shared_target.jinput
      ~output:shared_target.joutput
  in
  let sh = Evaluator.of_nodal_shared sp in
  let rn = Adaptive.run sh.Evaluator.snum in
  let rd = Adaptive.run sh.Evaluator.sden in
  let calls = rn.Adaptive.evaluations + rd.Adaptive.evaluations in
  Printf.printf
    "shared num/den on %s: %d evaluator calls -> %d factorizations (%d table hits)\n"
    shared_target.jname calls
    (sh.Evaluator.factorizations ())
    (sh.Evaluator.hits ());
  out "  \"shared\": { \"circuit\": \"%s\", \"calls\": %d, \"factorizations\": %d, \"hits\": %d },\n"
    shared_target.jname calls
    (sh.Evaluator.factorizations ())
    (sh.Evaluator.hits ());
  (* Counter snapshot of one full pipeline run on the shared target. *)
  let gen_target () =
    Reference.generate shared_target.jcircuit ~input:shared_target.jinput
      ~output:shared_target.joutput
  in
  Obs.reset ();
  Obs.enable ();
  ignore (gen_target ());
  Obs.disable ();
  let snap = Snapshot.capture () in
  Printf.printf
    "counters on %s: %d adaptive passes, %d factorizations, %d memo hits\n"
    shared_target.jname (Snapshot.value snap Obs.adaptive_passes)
    (Snapshot.factorizations snap) (Snapshot.value snap Obs.memo_hits);
  out "  \"counters\": { \"circuit\": \"%s\", \"snapshot\": %s },\n"
    shared_target.jname
    (Json.to_string (Snapshot.to_json snap));
  Obs.reset ();
  (* Observability overhead: the same reference generation with counters
     off, with counters on, and with tracing on.  Median-of-5 per mode,
     with the modes interleaved round-robin: the overheads are small
     enough that single-run noise used to dominate, and measuring the
     modes in sequence adds a systematic warm-up drift on top — the
     mode measured first looked slowest, so tracing could even report
     as *faster* than off.  Interleaving exposes every mode to the same
     drift; the median then discards the remaining outliers. *)
  let runs = 5 in
  (* More inner repetitions than the other sections: the quantity of
     interest is a sub-percent difference, so each sample needs to be a
     long enough average for the medians to order meaningfully. *)
  let obs_reps = reps * 4 in
  let trace_tmp = "BENCH_trace.tmp.json" in
  let s_off = Array.make runs 0.
  and s_stats = Array.make runs 0.
  and s_trace = Array.make runs 0. in
  for r = 0 to runs - 1 do
    s_off.(r) <- time_wall obs_reps gen_target;
    Obs.enable ();
    s_stats.(r) <- time_wall obs_reps gen_target;
    Obs.disable ();
    Obs.reset ();
    Trace.start ~file:trace_tmp;
    s_trace.(r) <- time_wall obs_reps gen_target;
    Trace.finish ()
  done;
  let median a =
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let t_off = median s_off in
  let t_stats = median s_stats in
  let t_trace = median s_trace in
  (try Sys.remove trace_tmp with Sys_error _ -> ());
  let pct t = (t -. t_off) /. t_off *. 100. in
  Printf.printf
    "observability overhead on %s: off %.2f ms, stats %.2f ms (%+.1f%%), trace \
     %.2f ms (%+.1f%%)\n"
    shared_target.jname (t_off *. 1000.) (t_stats *. 1000.) (pct t_stats)
    (t_trace *. 1000.) (pct t_trace);
  out
    "  \"observability\": { \"circuit\": \"%s\",\n\
    \    \"reference_ms\": { \"off\": %.4f, \"stats\": %.4f, \"trace\": %.4f },\n\
    \    \"overhead_pct\": { \"stats\": %.2f, \"trace\": %.2f } },\n"
    shared_target.jname (t_off *. 1000.) (t_stats *. 1000.) (t_trace *. 1000.)
    (pct t_stats) (pct t_trace);
  out "%s" (run_simplify ~smoke);
  out "%s" (run_fleet_chaos ~smoke);
  out "%s" (run_serve ~smoke);
  out "}\n";
  let file = if smoke then "BENCH_interp.smoke.json" else "BENCH_interp.json" in
  let oc = open_out file in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "\nwrote %s\n" file

(* --- Bechamel timing benches: one per table/figure --- *)

open Bechamel
open Toolkit

let stage = Staged.stage

let bench_tests () =
  let ota = ota_problem () in
  let ua741 = ua741_problem () in
  let den_ref = (ua741_reference ()).Reference.den in
  (* Scales of the recorded passes, to bench each interpolation separately. *)
  let pass_scale k =
    match List.nth_opt den_ref.Adaptive.reports (k - 1) with
    | Some p -> p.Adaptive.scale
    | None -> { Scaling.f = 1.; g = 1. }
  in
  let known_below i =
    let acc = ref [] in
    Array.iteri
      (fun j ok -> if ok && j < i then acc := (j, den_ref.Adaptive.coeffs.(j)) :: !acc)
      den_ref.Adaptive.established;
    !acc
  in
  let freqs = Grid.decades ~start:1. ~stop:1e8 ~per_decade:2 in
  let r_full = ua741_reference () in
  let with_sources = ua741_with_sources () in
  let ladder64 =
    let b = Sparse.create 64 in
    for i = 0 to 63 do
      Sparse.add b i i { Complex.re = 2e-3; im = 1e-3 };
      if i > 0 then Sparse.add b i (i - 1) { Complex.re = -1e-3; im = 0. };
      if i < 63 then Sparse.add b i (i + 1) { Complex.re = -1e-3; im = 0. }
    done;
    b
  in
  let ladder64_dense = Sparse.to_dense ladder64 in
  [
    Test.make ~name:"T1a/naive-ota"
      (stage (fun () -> ignore (Naive.run (Evaluator.of_nodal ota ~num:false))));
    Test.make ~name:"T1b/fixed-scale-ota"
      (stage (fun () ->
           ignore (Fixed_scale.run ~f:1e9 (Evaluator.of_nodal ota ~num:false))));
    Test.make ~name:"T2a/ua741-pass1-47pts"
      (stage (fun () ->
           ignore
             (Interp.run
                (Evaluator.of_nodal ua741 ~num:false)
                ~scale:(pass_scale 1) ~k:47)));
    Test.make ~name:"T2b/ua741-pass2-reduced"
      (stage (fun () ->
           ignore
             (Interp.run ~known:(known_below 28) ~base:27
                (Evaluator.of_nodal ua741 ~num:false)
                ~scale:(pass_scale 2) ~k:20)));
    Test.make ~name:"T3/ua741-pass3-reduced"
      (stage (fun () ->
           ignore
             (Interp.run ~known:(known_below 46) ~base:0
                (Evaluator.of_nodal ua741 ~num:false)
                ~scale:(pass_scale 5) ~k:6)));
    Test.make ~name:"CPU/ua741-adaptive-reduced"
      (stage (fun () -> ignore (Adaptive.run (Evaluator.of_nodal ua741 ~num:false))));
    Test.make ~name:"CPU/ua741-adaptive-unreduced"
      (stage (fun () ->
           ignore
             (Adaptive.run
                ~config:{ Adaptive.default_config with Adaptive.reduce = false }
                (Evaluator.of_nodal ua741 ~num:false))));
    Test.make ~name:"X1/ua741-frequency-only"
      (stage (fun () ->
           ignore
             (Adaptive.run
                ~config:
                  { Adaptive.default_config with Adaptive.scaling_policy = `Frequency_only }
                (Evaluator.of_nodal ua741 ~num:false))));
    Test.make ~name:"F2/bode-from-coefficients"
      (stage (fun () -> ignore (Reference.bode r_full freqs)));
    Test.make ~name:"F2/bode-electrical-simulator"
      (stage (fun () -> ignore (Ac.bode with_sources ~out_p:Ua741.output freqs)));
    Test.make ~name:"X2/sparse-lu-64"
      (stage (fun () -> ignore (Sparse.det (Sparse.factor ladder64))));
    Test.make ~name:"X2/dense-lu-64"
      (stage (fun () -> ignore (Dense.det (Dense.factor ladder64_dense))));
    (* Downstream analyses (not paper artefacts; perf reference points). *)
    Test.make ~name:"extra/ua741-pole-extraction"
      (stage (fun () -> ignore (Symref_core.Poles.analyse r_full)));
    Test.make ~name:"extra/ua741-noise-point"
      (stage (fun () ->
           ignore
             (Symref_mna.Noise.at Ua741.circuit
                ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
                ~output:(Nodal.Out_node Ua741.output) ~freq_hz:1e3)));
  ]

let run_timing () =
  section "TIMING" "Bechamel benches (OLS on the monotonic clock)";
  let tests = Test.make_grouped ~name:"symref" (bench_tests ()) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        let ns = match Analyze.OLS.estimates v with Some [ x ] -> x | _ -> Float.nan in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-45s  %s\n" "bench" "time per run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-45s  %s\n" name pretty)
    rows

let run_tables () =
  t1a ();
  t1b ();
  let r = t2_t3 () in
  f2 r;
  cpu ();
  x1 ();
  x2 ()

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "tables" -> run_tables ()
  | "timing" -> run_timing ()
  | "json" -> run_json ~smoke:false
  | "smoke" -> run_json ~smoke:true
  | "serve-smoke" -> print_string (run_serve ~smoke:true)
  | "simplify-smoke" -> print_string (run_simplify ~smoke:true)
  | "all" ->
      run_tables ();
      run_timing ()
  | "fleet-chaos" -> print_string (run_fleet_chaos ~smoke:false)
  | "fleet-chaos-smoke" -> print_string (run_fleet_chaos ~smoke:true)
  | "serve-worker" ->
      (* `serve-worker SOCKET WORKERS QUEUE`: a fleet-chaos worker, serving
         until a shutdown request.  Counters are live — the chaos bench
         reads worker-side shed counts back over Stats — and fault plans
         come from SYMREF_FAULT, so a supervisor restart re-arms the same
         deterministic plan in the fresh process. *)
      let workers = int_of_string Sys.argv.(3) in
      let queue = int_of_string Sys.argv.(4) in
      Obs.enable ();
      Symref_fault.Inject.arm_from_env ();
      Symref_serve.Daemon.run
        ~config:{ Symref_serve.Service.default_config with workers; queue }
        ~listen:[ Symref_serve.Transport.parse Sys.argv.(2) ]
        ()
  | m ->
      Printf.eprintf
        "unknown mode %s (want \
         tables|timing|all|json|smoke|serve-smoke|simplify-smoke|fleet-chaos|fleet-chaos-smoke)\n"
        m;
      exit 1
