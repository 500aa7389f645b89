(* The repository benchmark: one workload per invocation, end-to-end
   metrics from an untraced run or per-layer metrics from a traced run,
   every reply checked.  See README.md for the workloads, the metrics and
   how to read them. *)

module Service = Symref_serve.Service
module Protocol = Symref_serve.Protocol
module Client = Symref_serve.Client
module Router = Symref_serve.Router
module Disk_cache = Symref_serve.Disk_cache
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Transform = Symref_circuit.Transform
module Nodal = Symref_mna.Nodal
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics
module Trace = Symref_obs.Trace

type cfg = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  tiny : bool;
  symref : string;
  state : string;  (** this run's private state directory *)
}

let workloads = [ "reference"; "fleet-hit"; "fleet-miss" ]

(* Jobs per second each workload sustains on a quiet 2-vCPU Xeon VM.  With
   --seconds they fix the length of the job list, so every run of a seed
   does the same work and a slow machine shows as a longer run, not a
   smaller one. *)
let nominal_rate = function
  | "reference" -> 140.
  | "fleet-hit" -> 600.
  | _ -> 125.

let measured_jobs cfg =
  if cfg.tiny then if cfg.workload = "fleet-hit" then 12 else 6
  else int_of_float (nominal_rate cfg.workload *. float_of_int cfg.seconds)

let setup_reps cfg = if cfg.tiny then 1 else 5
let key_count cfg = if cfg.tiny then 3 else 32
let warm_count cfg = if cfg.tiny then 2 else 12
let probe_count cfg = if cfg.tiny then 3 else 48
let recheck_count cfg = if cfg.tiny then 2 else 6

(* --- failure accounting --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable clean : bool;  (** no leftover process or socket *)
  mutable notes : string list;
}

let tally = { attempted = 0; failed = 0; clean = true; notes = [] }
let note m = if List.length tally.notes < 20 then tally.notes <- m :: tally.notes

let count what = function
  | Ok () -> tally.attempted <- tally.attempted + 1
  | Error m ->
      tally.attempted <- tally.attempted + 1;
      tally.failed <- tally.failed + 1;
      note (what ^ ": " ^ m)

let leftovers = function
  | [] -> ()
  | l ->
      tally.clean <- false;
      List.iter (fun m -> note ("leftover " ^ m)) l

(* Evenly spaced picks, so a sample covers the whole (shuffled) list. *)
let spread_sample k xs =
  let n = Array.length xs in
  let k = Int.min k n in
  Array.init k (fun i -> xs.(i * n / k))

(* --- set-up --- *)

(* Set up [reps] times, keep the last and release the others; the
   reported set-up time is the median. *)
let repeated_setup ~reps ~setup ~release =
  let times = Array.make reps 0. in
  let rec go i =
    let x, t = setup () in
    times.(i) <- t;
    if i = reps - 1 then x
    else begin
      release x;
      go (i + 1)
    end
  in
  let x = go 0 in
  (x, Host.median times)

let reference_setup warm () =
  let t0 = Host.now_ns () in
  let svc = Service.create () in
  Array.iter (fun (j : Gen.job) -> ignore (Service.run_job svc j.Gen.pjob)) warm;
  (svc, Host.s_since t0)

(* Every fleet of every run lives in the same directory, emptied before
   each spawn: the hash ring is built from the worker socket paths, so a
   fixed path gives every run the same key placement. *)
let fleet_dir cfg = Filename.concat (Filename.dirname cfg.state) "fleet"

type fleet_run = { fleet : Fleet.t; conns : Fleet.conn array; warm_lines : string array }

(* Closed loop over [jobs] on the given connections, one thread each:
   every thread sends its next request only after its previous reply.
   Returns the elapsed seconds, per-job latencies (ms) and reply lines
   ([""] where the connection failed). *)
let drive ?(span = fun _ f -> f ()) conns (jobs : Gen.job array) =
  let n = Array.length jobs in
  let lat = Array.make n 0. and lines = Array.make n "" in
  let next = Atomic.make 0 in
  let loop c () =
    let broken = ref false in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t = Host.now_ns () in
        (if not !broken then
           match span jobs.(i) (fun () -> Fleet.exchange c jobs.(i).Gen.line) with
           | l -> lines.(i) <- l
           | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> broken := true);
        lat.(i) <- Host.ms_since t;
        go ()
      end
    in
    go ()
  in
  let t0 = Host.now_ns () in
  let threads = Array.map (fun c -> Thread.create (loop c) ()) conns in
  Array.iter Thread.join threads;
  (Host.s_since t0, lat, lines)

let fleet_setup cfg ~stats ~warm () =
  let t0 = Host.now_ns () in
  let fleet = Fleet.spawn ~symref:cfg.symref ~dir:(fleet_dir cfg) ~stats in
  let conns = Array.init Fleet.size (fun _ -> Fleet.open_conn (Fleet.front_addr fleet)) in
  let _, _, warm_lines = drive conns warm in
  let setup_s = Host.s_since t0 in
  Fleet.find_workers fleet;
  ({ fleet; conns; warm_lines }, setup_s)

let fleet_release ?keep r =
  Array.iter Fleet.close_conn r.conns;
  leftovers (Fleet.stop ?keep r.fleet)

(* --- workload inputs --- *)

type inputs = {
  warm : Gen.job array;  (** set-up requests *)
  jobs : Gen.job array;  (** the measured list, in order *)
  keys : int array;  (** fleet-hit: the key index of each measured job *)
}

let inputs cfg =
  let n = measured_jobs cfg in
  match cfg.workload with
  | "fleet-hit" ->
      let ring = Router.create (Fleet.worker_addrs (fleet_dir cfg)) in
      let owner pj = List.hd (Router.route ring (Router.job_key pj)) in
      let keys = Gen.keys ~seed:cfg.seed ~workers:Fleet.size ~owner (key_count cfg) in
      let seq = Gen.zipf ~seed:cfg.seed ~k:(Array.length keys) n in
      { warm = keys; jobs = Array.map (fun k -> keys.(k)) seq; keys = seq }
  | _ ->
      {
        warm = Gen.jobs ~seed:cfg.seed ~stream:2 ~prefix:"w" (warm_count cfg);
        jobs = Gen.jobs ~seed:cfg.seed ~stream:1 ~prefix:"j" n;
        keys = [||];
      }

(* --- checks --- *)

let what (j : Gen.job) = j.Gen.id ^ " " ^ Gen.label j.Gen.family

let check_computed_lines (jobs : Gen.job array) lines =
  Array.iteri
    (fun i l -> count (what jobs.(i)) (Result.bind (Check.parse_reply l) (Check.computed jobs.(i))))
    lines

(* fleet-hit: every payload byte-identical to the warm-up reply for its
   key, itself a checked computed reply. *)
let check_hits inp warm_lines lines =
  let expected =
    Array.mapi
      (fun k l ->
        Result.bind (Check.parse_reply l) (fun r ->
            Result.map (fun () -> Check.payload r) (Check.computed inp.warm.(k) r)))
      warm_lines
  in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i l ->
      let k = inp.keys.(i) in
      let verdict =
        match Hashtbl.find_opt seen l with
        | Some v -> v
        | None ->
            let v =
              match (expected.(k), Check.parse_reply l) with
              | Error m, _ -> Error ("warm-up reply: " ^ m)
              | _, Error m -> Error m
              | Ok p, Ok r when r.Protocol.status = Protocol.Ok && Check.payload r = p -> Ok ()
              | Ok _, Ok _ -> Error "payload differs from the warm-up reply"
            in
            Hashtbl.replace seen l v;
            v
      in
      count (what inp.jobs.(i)) verdict)
    lines

(* fleet-miss: a fixed sample re-run in-process must give the same bytes. *)
let recheck_in_process cfg (jobs : Gen.job array) lines =
  let svc = Service.create () in
  let idx = spread_sample (recheck_count cfg) (Array.init (Array.length jobs) Fun.id) in
  Array.iter
    (fun i ->
      let local = Check.payload (Service.run_job svc jobs.(i).Gen.pjob) in
      count ("re-run " ^ jobs.(i).Gen.id)
        (match Check.parse_reply lines.(i) with
        | Ok r when Check.payload r = local -> Ok ()
        | Ok _ -> Error "fleet payload differs from the in-process run"
        | Error m -> Error m))
    idx;
  Service.shutdown svc

(* --- end-to-end (untraced) run --- *)

(* The reference loop: one thread, closed loop.  Each reply is checked
   as soon as its latency is taken and then dropped, so the benchmark does
   not grow the heap the program's own allocations are collected in. *)
let reference_pass ?(span = fun _ f -> f ()) svc (jobs : Gen.job array) =
  let lat = Array.make (Array.length jobs) 0. in
  let t0 = Host.now_ns () in
  Array.iteri
    (fun i (j : Gen.job) ->
      let t = Host.now_ns () in
      let r = span j (fun () -> Service.run_job svc j.Gen.pjob) in
      lat.(i) <- Host.ms_since t;
      count (what j) (Check.computed j r))
    jobs;
  (Host.s_since t0, lat)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let details = ref []
let detail fmt = Printf.ksprintf (fun s -> details := s :: !details) fmt

let end_to_end cfg =
  let inp = inputs cfg in
  let reps = setup_reps cfg in
  let elapsed, lat, setup_s, rss =
    match cfg.workload with
    | "reference" ->
        let svc, setup_s =
          repeated_setup ~reps ~setup:(reference_setup inp.warm) ~release:Service.shutdown
        in
        let elapsed, lat = reference_pass svc inp.jobs in
        let rss = Host.peak_rss_mb (Unix.getpid ()) in
        Service.shutdown svc;
        (elapsed, lat, setup_s, rss)
    | _ ->
        let run, setup_s =
          repeated_setup ~reps ~setup:(fleet_setup cfg ~stats:false ~warm:inp.warm)
            ~release:(fleet_release ?keep:None)
        in
        let elapsed, lat, lines = drive run.conns inp.jobs in
        let rss = Fleet.peak_rss_mb run.fleet in
        fleet_release run;
        if cfg.workload = "fleet-hit" then check_hits inp run.warm_lines lines
        else begin
          check_computed_lines inp.jobs lines;
          recheck_in_process cfg inp.jobs lines
        end;
        (elapsed, lat, setup_s, rss)
  in
  let q, p_tail, beyond = Host.tail lat in
  detail "p99_ms is the p%.2f over %d replies (%d beyond it)" (100. *. q) (Array.length lat) beyond;
  detail "setup_s is the median of %d set-ups" reps;
  (* Per-family medians show where p50 and p99 sit in the cost mix. *)
  if cfg.workload <> "fleet-hit" then
    List.iter
      (fun fam ->
        let xs =
          List.filteri
            (fun i _ -> Gen.family_name inp.jobs.(i).Gen.family = fam)
            (Array.to_list lat)
        in
        if xs <> [] then
          detail "%-6s p50 %.3f ms over %d jobs" fam
            (Host.median (Array.of_list xs))
            (List.length xs))
      [ "net"; "ladder"; "ua741" ];
  [
    m "jobs_per_s" "1/s" (float_of_int (Array.length lat) /. elapsed);
    m "p50_ms" "ms" (Host.median lat);
    m "p99_ms" "ms" p_tail;
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MiB" rss;
  ]

(* --- traced run --- *)

(* Calls into one layer's public function, timed from outside.  Each call
   runs inside a span tagged with the job id, so the spans the numeric
   core emits nest under it in the trace. *)
let timed_layers =
  [
    "spice.parse"; "spice.canonical"; "service.key"; "service.hit"; "client.connect";
    "daemon.request"; "router.forward"; "front.request"; "protocol.decode"; "json.render";
    "mna.make"; "reference.generate"; "reference.health"; "disk_cache.store"; "disk_cache.find";
  ]

(* Spans the program emits; reported as self time per job, summed over
   the spans under each in-process [service.run_job]. *)
let span_layers = [ "adaptive.pass"; "interp.batch"; "lu.symbolic"; "lu.batch"; "lu.kernel" ]

(* Metrics counters read before and after each in-process job. *)
let job_counters =
  [
    "lu.symbolic"; "lu.refactor"; "kernel.points"; "kernel.batch_points"; "evaluator.calls";
    "interp.points_evaluated"; "adaptive.passes"; "guard.singular_retries";
  ]

let router_counters =
  [ "router.requests"; "router.hedges"; "router.hedge_wins"; "router.failovers" ]

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32
let samples_of name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let add_sample name ms = Hashtbl.replace samples name (ms :: samples_of name)

let span_of (j : Gen.job) name f = Trace.span ~cat:"perfbench" ~args:[ ("job", j.Gen.id) ] name f

let timed_raw name j f = span_of j name (fun () -> Host.time_ms f)

let timed name j f =
  let r, ms = timed_raw name j f in
  add_sample name ms;
  r

let counters_now () =
  let all = Metrics.all () in
  List.map (fun n -> Option.value ~default:0 (List.assoc_opt n all)) job_counters

(* In-process probes over one job: each layer call the service makes on a
   cache miss, then the miss itself and a hit on the same service.  The
   listed calls and the miss alternate in order from job to job, so
   neither side always runs on colder caches.  Returns the time (ms) the
   listed calls cover and the time the miss took. *)
let probe_in_process svc disk counts ~miss_first (j : Gen.job) ~line =
  let pj = j.Gen.pjob in
  let listed () =
    let circuit, t_parse = timed_raw "spice.parse" j (fun () -> Parser.parse_string (Gen.text j)) in
    let circuit = Transform.inductors_to_gyrators circuit in
    let (c, input, output, input_desc, output_desc), t_resolve =
      timed_raw "service.resolve_io" j (fun () ->
          Service.resolve_io circuit ~input:pj.Protocol.input ~output:pj.Protocol.output)
    in
    let canonical, t_canonical = timed_raw "spice.canonical" j (fun () -> Writer.to_string c) in
    let key, t_key =
      timed_raw "service.cache_key" j (fun () ->
          Service.cache_key ~canonical pj ~input_desc ~output_desc)
    in
    add_sample "spice.parse" t_parse;
    add_sample "spice.canonical" t_canonical;
    add_sample "service.key" (t_resolve +. t_key);
    ignore (timed "mna.make" j (fun () -> Nodal.make c ~input ~output));
    let config =
      { Adaptive.default_config with Adaptive.sigma = pj.Protocol.sigma; r = pj.Protocol.r }
    in
    let reference, t_generate =
      timed_raw "reference.generate" j (fun () -> Reference.generate ~config c ~input ~output)
    in
    let _, t_health = timed_raw "reference.health" j (fun () -> Reference.health reference) in
    add_sample "reference.generate" t_generate;
    add_sample "reference.health" t_health;
    (key, t_parse +. t_resolve +. t_canonical +. t_key +. t_generate +. t_health)
  in
  let miss () =
    let before = counters_now () in
    let r = timed_raw "service.run_job" j (fun () -> Service.run_job svc pj) in
    List.iteri
      (fun i (a, b) -> counts.(i) <- counts.(i) + (b - a))
      (List.combine before (counters_now ()));
    r
  in
  let (key, covered), (miss, t_miss) =
    if miss_first then
      let r = miss () in
      (listed (), r)
    else
      let l = listed () in
      (l, miss ())
  in
  let hit = timed "service.hit" j (fun () -> Service.run_job svc pj) in
  count (j.Gen.id ^ " in-process") (Check.computed j miss);
  count (j.Gen.id ^ " in-process hit")
    (if Check.payload hit = Check.payload miss then Ok ()
     else Error "hit payload differs from the miss");
  let line =
    match line with Some l -> l | None -> Json.to_string (Protocol.reply_to_json miss) ^ "\n"
  in
  let reply = timed "protocol.decode" j (fun () -> Protocol.reply_of_json (Json.parse line)) in
  ignore (timed "json.render" j (fun () -> Json.to_string (Protocol.reply_to_json reply)));
  let payload = Check.payload reply in
  timed "disk_cache.store" j (fun () -> Disk_cache.store disk ~key payload);
  count (j.Gen.id ^ " disk")
    (if timed "disk_cache.find" j (fun () -> Disk_cache.find disk ~key) = Some payload then Ok ()
     else Error "disk cache returned other bytes");
  (covered, t_miss)

let reply_ok what = function
  | (r : Protocol.reply) when r.Protocol.status = Protocol.Ok -> count what (Ok ())
  | r -> count what (Error (Protocol.status_to_string r.Protocol.status))

(* Socket probes over one job the fleet has already computed, so each
   call measures relay and cache, not compute. *)
let probe_sockets router addrs direct front (j : Gen.job) =
  let pj = j.Gen.pjob in
  let w = List.hd (Router.route router (Router.job_key pj)) in
  Client.close (timed "client.connect" j (fun () -> Client.connect ~addr:(List.nth addrs w)));
  reply_ok (j.Gen.id ^ " direct")
    (timed "daemon.request" j (fun () -> Client.request direct.(w) (Protocol.Submit pj)));
  reply_ok (j.Gen.id ^ " forward") (timed "router.forward" j (fun () -> Router.forward router pj));
  reply_ok (j.Gen.id ^ " front")
    (timed "front.request" j (fun () -> Client.request front (Protocol.Submit pj)))

type ev = { ev_name : string; ts : float; dur : float; tid : int }

(* Self time (µs) per span name, over spans nested under a [root] span:
   each span's duration minus what its direct children cover. *)
let self_times ~root events =
  let sorted =
    List.sort (fun a b -> compare (a.tid, a.ts, -.a.dur) (b.tid, b.ts, -.b.dur)) events
  in
  let totals = Hashtbl.create 16 in
  let stack = ref [] in
  let close (e, children, under) =
    if under then
      Hashtbl.replace totals e.ev_name
        (e.dur -. children +. Option.value ~default:0. (Hashtbl.find_opt totals e.ev_name))
  in
  let rec pop_until e =
    match !stack with
    | ((top, _, _) as frame) :: rest when top.tid <> e.tid || e.ts >= top.ts +. top.dur ->
        close frame;
        stack := rest;
        pop_until e
    | _ -> ()
  in
  List.iter
    (fun e ->
      pop_until e;
      let under =
        match !stack with
        | (parent, children, parent_under) :: rest ->
            stack := (parent, children +. e.dur, parent_under) :: rest;
            parent_under || parent.ev_name = root
        | [] -> false
      in
      stack := (e, 0., under) :: !stack)
    sorted;
  List.iter close !stack;
  totals

(* Complete events recorded after the [marker] instant. *)
let events_after marker =
  let evs =
    Option.fold ~none:[] ~some:Json.to_list (Json.member "traceEvents" (Trace.to_json ()))
  in
  let num k e = match Json.member k e with Some (Json.Num x) -> x | _ -> 0. in
  let str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> "" in
  let start =
    List.fold_left (fun acc e -> if str "name" e = marker then num "ts" e else acc) infinity evs
  in
  List.filter_map
    (fun e ->
      if str "ph" e = "X" && num "ts" e >= start then
        Some
          {
            ev_name = str "name" e;
            ts = num "ts" e;
            dur = num "dur" e;
            tid = int_of_float (num "tid" e);
          }
      else None)
    evs

(* One integer field of every worker's stats in the front's Stats reply. *)
let worker_field stats path =
  match Json.member "workers" stats with
  | Some (Json.Arr ws) ->
      List.map
        (fun w ->
          let field j k = Option.bind j (Json.member k) in
          match List.fold_left field (Json.member "stats" w) path with
          | Some (Json.Num x) -> int_of_float x
          | _ -> 0)
        ws
  | _ -> []

let traced cfg =
  let inp = inputs cfg in
  (* A: the same list untraced, for the overhead baseline. *)
  let untraced_s =
    match cfg.workload with
    | "reference" ->
        let svc, _ = reference_setup inp.warm () in
        let s, _ = reference_pass svc inp.jobs in
        Service.shutdown svc;
        s
    | _ ->
        let run, _ = fleet_setup cfg ~stats:false ~warm:inp.warm () in
        let s, _, _ = drive run.conns inp.jobs in
        fleet_release run;
        s
  in
  (* B: traced, on fresh program state, every request in a span. *)
  let trace_file =
    Filename.concat (Filename.dirname cfg.state) ("trace-" ^ cfg.workload ^ ".json")
  in
  Metrics.reset ();
  Metrics.enable ();
  Trace.start ~file:trace_file;
  let request_span j f = span_of j "perfbench.request" f in
  let traced_s, fleet =
    match cfg.workload with
    | "reference" ->
        let svc, _ = reference_setup inp.warm () in
        let s, _ = reference_pass ~span:request_span svc inp.jobs in
        Service.shutdown svc;
        (s, None)
    | _ ->
        let run, _ = fleet_setup cfg ~stats:true ~warm:inp.warm () in
        let s, _, lines = drive ~span:request_span run.conns inp.jobs in
        Array.iter Fleet.close_conn run.conns;
        if cfg.workload = "fleet-hit" then check_hits inp run.warm_lines lines
        else check_computed_lines inp.jobs lines;
        (s, Some (run, lines))
  in
  (* C: in-process layer probes over a sample of the workload's circuits. *)
  let sample, lines =
    match (cfg.workload, fleet) with
    | "fleet-hit", Some (run, _) ->
        let k = Int.min (probe_count cfg) (Array.length inp.warm) in
        (Array.sub inp.warm 0 k, Array.map Option.some (Array.sub run.warm_lines 0 k))
    | _, Some (_, lines) ->
        let idx = spread_sample (probe_count cfg) (Array.init (Array.length inp.jobs) Fun.id) in
        (Array.map (fun i -> inp.jobs.(i)) idx, Array.map (fun i -> Some lines.(i)) idx)
    | _, None ->
        let s = spread_sample (probe_count cfg) inp.jobs in
        (s, Array.map (fun _ -> None) s)
  in
  Trace.instant "perfbench.probes";
  let svc = Service.create () in
  let disk = Disk_cache.create ~dir:(Filename.concat cfg.state "disk") in
  let counts = Array.make (List.length job_counters) 0 in
  let covered, miss_ms =
    Array.fold_left
      (fun (c, t) (i, j, line) ->
        let c', t' = probe_in_process svc disk counts ~miss_first:(i mod 2 = 0) j ~line in
        (c +. c', t +. t'))
      (0., 0.)
      (Array.mapi (fun i j -> (i, j, lines.(i))) sample)
  in
  Service.shutdown svc;
  let per_job x = x /. float_of_int (Array.length sample) in
  let selfs = self_times ~root:"service.run_job" (events_after "perfbench.probes") in
  (* D: socket probes against a live fleet; the reference workload starts
     one and has it compute the sample first. *)
  let run =
    match fleet with
    | Some (run, _) -> run
    | None ->
        let run, _ = fleet_setup cfg ~stats:true ~warm:sample () in
        check_computed_lines sample run.warm_lines;
        Array.iter Fleet.close_conn run.conns;
        run
  in
  let addrs = Fleet.worker_addrs run.fleet.Fleet.dir in
  let router = Router.create addrs in
  let direct = Array.of_list (List.map (fun addr -> Client.connect ~addr) addrs) in
  let front = Client.connect ~addr:(Fleet.front_addr run.fleet) in
  Array.iter (probe_sockets router addrs direct front) sample;
  Array.iter Client.close direct;
  Client.close front;
  let stats = (Fleet.stats run.fleet).Protocol.body in
  leftovers (Fleet.stop ~keep:true run.fleet);
  let exit_counters = Fleet.exit_counters run.fleet in
  Host.rm_rf run.fleet.Fleet.dir;
  detail "trace written to %s (%d events)" trace_file (Trace.event_count ());
  Trace.finish ();
  Metrics.disable ();
  detail "tracing overhead: traced %.3f s vs untraced %.3f s over %d requests" traced_s untraced_s
    (Array.length inp.jobs);
  detail "probes over %d jobs; service.uncovered_share = 1 - %.3f ms covered / %.3f ms per miss"
    (Array.length sample) (per_job covered) (per_job miss_ms);
  let sum xs = float_of_int (List.fold_left ( + ) 0 xs) in
  let n name = List.length (samples_of name) in
  let p50 name = Host.median (Array.of_list (samples_of name)) in
  List.iter (fun l -> detail "%-26s p50 over n=%d calls" (l ^ "_ms") (n l)) timed_layers;
  detail "span self times and counts are per job over n=%d jobs" (Array.length sample);
  List.map (fun l -> m (l ^ "_ms") "ms" (p50 l)) timed_layers
  @ List.map
      (fun l ->
        m (l ^ "_ms") "ms" (per_job (Option.value ~default:0. (Hashtbl.find_opt selfs l)) /. 1e3))
      span_layers
  @ List.mapi (fun i c -> m c "count" (per_job (float_of_int counts.(i)))) job_counters
  @ List.map
      (fun c ->
        m c "count" (float_of_int (Option.value ~default:0 (List.assoc_opt c exit_counters))))
      router_counters
  @ [
      m "worker.cache_hits" "count" (sum (worker_field stats [ "cache"; "hits" ]));
      m "worker.cache_misses" "count" (sum (worker_field stats [ "cache"; "misses" ]));
      (* The workers share one disk cache directory. *)
      m "worker.disk_entries" "count"
        (float_of_int (List.fold_left Int.max 0 (worker_field stats [ "disk_cache"; "entries" ])));
      m "trace.overhead" "ratio" (traced_s /. untraced_s);
      m "service.uncovered_share" "ratio" (1. -. (covered /. miss_ms));
    ]

(* --- command line --- *)

let usage =
  "perfbench --workload (reference|fleet-hit|fleet-miss|all) --seed N --seconds S --trace (0|1)\n\
  \          [--symref PATH] [--state DIR] [--size tiny]"

(* [--workload all]: each workload in turn, as its own child process with
   the same arguments; exits non-zero if any of them did. *)
let run_all () =
  let argv = Sys.argv in
  let ok =
    List.fold_left
      (fun ok w ->
        let args =
          Array.mapi (fun i a -> if i > 0 && argv.(i - 1) = "--workload" then w else a) argv
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> ok | _ -> false)
      true workloads
  in
  exit (if ok then 0 else 1)

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let kv = go [] args in
  let get k default =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> (
        match default with
        | Some d -> d
        | None ->
            Printf.eprintf "missing %s\n%s\n" k usage;
            exit 2)
  in
  let int k default =
    match int_of_string_opt (get k default) with
    | Some v -> v
    | None ->
        Printf.eprintf "%s takes an integer\n" k;
        exit 2
  in
  let workload = get "--workload" None in
  if workload = "all" then run_all ();
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s\n%s\n" workload usage;
    exit 2
  end;
  let root = get "--state" (Some ".perfbench") in
  {
    workload;
    seed = int "--seed" None;
    seconds = int "--seconds" None;
    trace = int "--trace" (Some "0") = 1;
    tiny = get "--size" (Some "full") = "tiny";
    symref = get "--symref" (Some "_build/default/bin/symref.exe");
    state = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ()));
  }

let () =
  let cfg = parse_args () in
  Host.mkdir_p cfg.state;
  let ticks0 = Host.cpu_ticks () in
  let metrics =
    try if cfg.trace then traced cfg else end_to_end cfg with
    | e ->
        let bt = Printexc.get_backtrace () in
        Fleet.stop_all ();
        Host.rm_rf cfg.state;
        Printf.eprintf "perfbench: %s\n%s" (Printexc.to_string e) bt;
        exit 1
  in
  let ticks1 = Host.cpu_ticks () in
  Host.rm_rf cfg.state;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  if not finite then note "a metric is not finite";
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" cfg.workload cfg.seed cfg.seconds
    (if cfg.trace then 1 else 0);
  List.iter (fun x -> Printf.printf "  %-26s %14.6f %s\n" x.name x.value x.unit) metrics;
  List.iter (Printf.printf "  %s\n") (List.rev !details);
  Printf.printf "  attempted %d, failed %d\n" tally.attempted tally.failed;
  Printf.printf "  steal: %.4f of all CPU ticks during the run (%d of %d)\n"
    (Host.steal_share ticks0 ticks1) (fst ticks1 - fst ticks0) (snd ticks1 - snd ticks0);
  List.iter (Printf.printf "  failure: %s\n") (List.rev tally.notes);
  let correct = tally.failed = 0 && tally.clean && finite && tally.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (Int.max 1 tally.attempted)));
            ("failed", Json.Num (float_of_int tally.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.name,
                       Json.Obj
                         [
                           ("value", Json.Num (if Float.is_finite x.value then x.value else 0.));
                           ("unit", Json.Str x.unit);
                         ] ))
                   metrics) );
          ]))
