(* The serve subsystem: cache, scheduler, service, batch, and an
   end-to-end daemon round trip over a real Unix domain socket. *)

module Serve = Symref_serve
module Protocol = Serve.Protocol
module Cache = Serve.Cache
module Scheduler = Serve.Scheduler
module Service = Serve.Service
module Batch = Serve.Batch
module Json = Symref_obs.Json

let netlist = Example_netlists.path
let read_file f = In_channel.with_open_bin f In_channel.input_all

let temp_dir prefix = Filename.temp_dir prefix ""

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Recognise the "file:LINE: message" one-line diagnostic convention. *)
let has_line_colon m =
  let n = String.length m in
  let rec scan i =
    if i >= n then false
    else if m.[i] = ':' then begin
      let j = ref (i + 1) in
      while !j < n && m.[!j] >= '0' && m.[!j] <= '9' do
        incr j
      done;
      if !j > i + 1 && !j < n && m.[!j] = ':' then true else scan (i + 1)
    end
    else scan (i + 1)
  in
  scan 0

(* --- cache --- *)

let test_cache_lru () =
  (* Budget sized for exactly two 100-byte payloads with 2-byte keys. *)
  let c = Cache.create ~max_bytes:204 () in
  let p = String.make 100 'x' in
  Cache.add c ~key:"k1" p;
  Cache.add c ~key:"k2" p;
  Alcotest.(check int) "two resident" 2 (Cache.entries c);
  (* Touch k1 so k2 becomes least recently used, then overflow. *)
  Alcotest.(check (option string)) "k1 hit" (Some p) (Cache.find c ~key:"k1");
  Cache.add c ~key:"k3" p;
  Alcotest.(check (option string)) "k2 evicted" None (Cache.find c ~key:"k2");
  Alcotest.(check (option string)) "k1 kept" (Some p) (Cache.find c ~key:"k1");
  Alcotest.(check (option string)) "k3 kept" (Some p) (Cache.find c ~key:"k3");
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check int) "hits counted" 3 (Cache.hits c);
  Alcotest.(check int) "misses counted" 1 (Cache.misses c)

let test_cache_oversize_and_replace () =
  let c = Cache.create ~max_bytes:50 () in
  Cache.add c ~key:"big" (String.make 100 'x');
  Alcotest.(check int) "oversize payload not cached" 0 (Cache.entries c);
  Cache.add c ~key:"k" "one";
  Cache.add c ~key:"k" "two";
  Alcotest.(check int) "replace keeps one entry" 1 (Cache.entries c);
  Alcotest.(check (option string)) "replaced value" (Some "two")
    (Cache.find c ~key:"k");
  Cache.clear c;
  Alcotest.(check int) "clear empties" 0 (Cache.entries c);
  Alcotest.(check int) "clear resets bytes" 0 (Cache.bytes c)

(* --- scheduler --- *)

let ticket_of = function
  | Scheduler.Admitted t -> t
  | Scheduler.Shed _ -> Alcotest.fail "submission shed"
  | Scheduler.Stopped -> Alcotest.fail "submission refused (stopped)"

let is_admitted = function Scheduler.Admitted _ -> true | _ -> false
let is_shed = function Scheduler.Shed _ -> true | _ -> false

let test_scheduler_backpressure () =
  (* queue:0 = the pre-queue semantics — busy workers shed immediately. *)
  let s = Scheduler.create ~workers:2 ~queue:0 () in
  let gate = Mutex.create () in
  let open_gate = Condition.create () in
  let released = ref false in
  let blocked () =
    Mutex.lock gate;
    while not !released do
      Condition.wait open_gate gate
    done;
    Mutex.unlock gate;
    42
  in
  let t1 = Scheduler.submit s blocked in
  let t2 = Scheduler.submit s blocked in
  Alcotest.(check bool) "two admitted" true (is_admitted t1 && is_admitted t2);
  (match Scheduler.submit s blocked with
  | Scheduler.Shed { retry_after_ms } ->
      Alcotest.(check bool) "shed carries a positive retry hint" true
        (retry_after_ms > 0.)
  | _ -> Alcotest.fail "third submission must be shed (queue disabled)");
  Mutex.lock gate;
  released := true;
  Condition.broadcast open_gate;
  Mutex.unlock gate;
  Alcotest.(check bool) "job result" true
    (Scheduler.await (ticket_of t1) = Ok 42);
  Scheduler.drain s;
  Alcotest.(check int) "drained" 0 (Scheduler.pending s);
  Alcotest.(check bool) "slot free again" true
    (is_admitted (Scheduler.submit s (fun () -> 7)));
  Scheduler.shutdown s;
  Alcotest.(check bool) "stopped scheduler refuses" true
    (Scheduler.submit s (fun () -> 7) = Scheduler.Stopped)

let test_scheduler_queue_and_shed () =
  let s = Scheduler.create ~workers:1 ~queue:2 () in
  let gate = Mutex.create () in
  let open_gate = Condition.create () in
  let released = ref false in
  let blocked v () =
    Mutex.lock gate;
    while not !released do
      Condition.wait open_gate gate
    done;
    Mutex.unlock gate;
    v
  in
  let t1 = Scheduler.submit s (blocked 1) in
  let t2 = Scheduler.submit s (blocked 2) in
  let t3 = Scheduler.submit s (blocked 3) in
  Alcotest.(check bool) "one running, two queued" true
    (is_admitted t1 && is_admitted t2 && is_admitted t3);
  Alcotest.(check int) "queued" 2 (Scheduler.queued s);
  Alcotest.(check int) "pending counts the queue" 3 (Scheduler.pending s);
  Alcotest.(check bool) "fourth shed (queue full)" true
    (is_shed (Scheduler.submit s (blocked 4)));
  Mutex.lock gate;
  released := true;
  Condition.broadcast open_gate;
  Mutex.unlock gate;
  (* FIFO: every queued job runs to completion in order. *)
  Alcotest.(check bool) "first" true (Scheduler.await (ticket_of t1) = Ok 1);
  Alcotest.(check bool) "second" true (Scheduler.await (ticket_of t2) = Ok 2);
  Alcotest.(check bool) "third" true (Scheduler.await (ticket_of t3) = Ok 3);
  Scheduler.shutdown s

let test_scheduler_deadline_shed_and_evict () =
  let s = Scheduler.create ~workers:1 ~queue:4 () in
  let gate = Mutex.create () in
  let open_gate = Condition.create () in
  let released = ref false in
  let blocked () =
    Mutex.lock gate;
    while not !released do
      Condition.wait open_gate gate
    done;
    Mutex.unlock gate;
    0
  in
  let t1 = Scheduler.submit s blocked in
  Alcotest.(check bool) "holder admitted" true (is_admitted t1);
  (* A deadline already in the past cannot be met by any queue estimate:
     shed up front, never queued. *)
  let hopeless =
    Scheduler.submit ~deadline:(Unix.gettimeofday () -. 1.) s (fun () -> 9)
  in
  Alcotest.(check bool) "hopeless deadline shed up front" true
    (is_shed hopeless);
  (* A queued job whose deadline passes while it waits is evicted at
     dispatch, and its ticket says so. *)
  (* Slack (250 ms) comfortably above the 50 ms EWMA estimate: admitted. *)
  let doomed =
    Scheduler.submit ~deadline:(Unix.gettimeofday () +. 0.25) s (fun () -> 9)
  in
  Alcotest.(check bool) "near deadline admitted to the queue" true
    (is_admitted doomed);
  Unix.sleepf 0.3;
  Mutex.lock gate;
  released := true;
  Condition.broadcast open_gate;
  Mutex.unlock gate;
  (match Scheduler.await (ticket_of doomed) with
  | Error (Scheduler.Evicted { retry_after_ms }) ->
      Alcotest.(check bool) "eviction carries a positive retry hint" true
        (retry_after_ms > 0.)
  | Ok _ -> Alcotest.fail "doomed job must not run"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string e));
  Alcotest.(check bool) "holder finished" true
    (Scheduler.await (ticket_of t1) = Ok 0);
  Scheduler.shutdown s

let test_scheduler_exception_isolation () =
  let s = Scheduler.create ~workers:4 () in
  let t = Scheduler.submit s (fun () -> failwith "boom") in
  (match Scheduler.await (ticket_of t) with
  | Error (Failure m) -> Alcotest.(check string) "exn carried" "boom" m
  | _ -> Alcotest.fail "expected Error (Failure boom)");
  (* The worker survives the exception. *)
  let t = Scheduler.submit s (fun () -> 1 + 1) in
  Alcotest.(check bool) "worker alive" true (Scheduler.await (ticket_of t) = Ok 2);
  Scheduler.shutdown s

let test_scheduler_workers_bound () =
  (* 0 = auto; 1..64 as given; anything else is refused before a domain
     is spawned. *)
  let refused n =
    match Scheduler.create ~workers:n () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "65 refused" true (refused 65);
  Alcotest.(check bool) "-1 refused" true (refused (-1));
  Alcotest.(check int) "64 kept" 64
    (Scheduler.workers (Scheduler.create ~workers:64 ()));
  let auto = Scheduler.workers (Scheduler.create ()) in
  Alcotest.(check bool) "auto within 1..64" true (auto >= 1 && auto <= 64)

(* --- service --- *)

let ua741_text () = read_file (netlist "ua741.cir")

let reference_job ?id ?timeout_ms text =
  {
    Protocol.default_job with
    Protocol.id;
    netlist = `Text text;
    timeout_ms;
  }

let test_service_cache_bit_identity () =
  let s = Service.create () in
  let job = reference_job ~id:"a" (ua741_text ()) in
  let r1 = Service.run_job s job in
  let hits_before = Cache.hits (Service.cache s) in
  let r2 = Service.run_job s { job with Protocol.id = Some "b" } in
  Alcotest.(check bool) "first not cached" false r1.Protocol.cached;
  Alcotest.(check bool) "second cached" true r2.Protocol.cached;
  Alcotest.(check int) "hit counter incremented" (hits_before + 1)
    (Cache.hits (Service.cache s));
  Alcotest.(check string) "payload bit-identical"
    (Json.to_string r1.Protocol.body)
    (Json.to_string r2.Protocol.body);
  Service.shutdown s

let test_service_formatting_invariance () =
  (* The cache key hashes the canonicalised netlist: formatting, case and
     comment differences must hit the same entry. *)
  let s = Service.create () in
  let text = "rc\nr1 in out 1k\nc1 out 0 1u\nv1 in 0 ac 1\n.end\n" in
  let reformatted =
    "rc\n* a comment\nR1  IN  OUT  1K\n\nc1 out 0 1u\nV1 in 0 AC 1\n"
  in
  let r1 = Service.run_job s (reference_job text) in
  let r2 = Service.run_job s (reference_job reformatted) in
  Alcotest.(check bool) "canonicalised variant cached" true r2.Protocol.cached;
  Alcotest.(check string) "same payload"
    (Json.to_string r1.Protocol.body)
    (Json.to_string r2.Protocol.body);
  Service.shutdown s

let test_service_exact_key () =
  (* Two netlists that differ only in r2's seventh digit: the key must
     tell them apart, so the second is computed, not served the first
     one's answer, and it reads exactly what a fresh service computes. *)
  let rc r2 =
    Printf.sprintf
      "two-pole rc\nv1 in 0 ac 1\nr1 in a 1000\nc1 a 0 1n\nr2 a out %s\nc2 out 0 1n\n.end\n"
      r2
  in
  let job r2 = { (reference_job (rc r2)) with Protocol.sigma = 10 } in
  let dc_gain (r : Protocol.reply) =
    match Json.member "dc_gain" r.Protocol.body with
    | Some (Json.Num x) -> x
    | _ -> Alcotest.fail "no dc_gain in the payload"
  in
  let s = Service.create () in
  let first = Service.run_job s (job "1000.0001") in
  let second = Service.run_job s (job "1000.0004") in
  Alcotest.(check int) "two keys" 2 (Cache.entries (Service.cache s));
  Alcotest.(check bool) "second not cached" false second.Protocol.cached;
  Service.shutdown s;
  let fresh = Service.create () in
  let alone = Service.run_job fresh (job "1000.0004") in
  Service.shutdown fresh;
  Alcotest.(check string) "second reads what a fresh service computes"
    (Json.to_string alone.Protocol.body)
    (Json.to_string second.Protocol.body);
  Alcotest.(check bool) "two answers" true
    (Int64.bits_of_float (dc_gain first) <> Int64.bits_of_float (dc_gain second))

let test_service_timeout_and_isolation () =
  let s = Service.create () in
  (* timeout_ms = 0: the deadline is already expired at admission, so the
     cooperative check fires deterministically on the first evaluation. *)
  let t = Service.submit s (reference_job ~id:"late" ~timeout_ms:0 (ua741_text ())) in
  let ok = Service.submit s (reference_job ~id:"fine" (ua741_text ())) in
  (match (t, ok) with
  | `Ticket late, `Ticket fine ->
      (match Scheduler.await late with
      | Ok r ->
          Alcotest.(check bool) "timeout status" true
            (r.Protocol.status = Protocol.Timeout);
          Alcotest.(check (option string)) "timeout kind" (Some "timeout")
            (Protocol.error_kind r)
      | Error _ -> Alcotest.fail "timeout must be a structured reply");
      (match Scheduler.await fine with
      | Ok r ->
          Alcotest.(check bool) "concurrent job unaffected" true
            (r.Protocol.status = Protocol.Ok)
      | Error _ -> Alcotest.fail "concurrent job must succeed")
  | _ -> Alcotest.fail "submissions refused");
  Service.shutdown s

let test_service_queued_deadline () =
  (* One worker, every other setting at its default: a job queued behind
     the busy worker is answered by its deadline — evicted with a retry
     hint — not run to a [timeout] reply once the worker frees up. *)
  let s = Service.create ~config:{ Service.default_config with workers = 1 } () in
  let gate = Mutex.create () in
  let open_gate = Condition.create () in
  let released = ref false in
  let holder =
    ticket_of
      (Scheduler.submit (Service.scheduler s) (fun () ->
           Mutex.lock gate;
           while not !released do
             Condition.wait open_gate gate
           done;
           Mutex.unlock gate))
  in
  let opener =
    Thread.create
      (fun () ->
        Unix.sleepf 1.;
        Mutex.lock gate;
        released := true;
        Condition.broadcast open_gate;
        Mutex.unlock gate)
      ()
  in
  let t0 = Unix.gettimeofday () in
  (match
     Service.submit s (reference_job ~id:"queued" ~timeout_ms:100 (ua741_text ()))
   with
  | `Rejected _ -> Alcotest.fail "job must be admitted to the queue"
  | `Ticket t -> (
      match Scheduler.await t with
      | Error (Scheduler.Evicted { retry_after_ms }) ->
          let waited = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "eviction carries a positive retry hint" true
            (retry_after_ms > 0.);
          Alcotest.(check bool)
            (Printf.sprintf "answered within 0.5 s (took %.3f s)" waited)
            true (waited < 0.5)
      | Ok _ -> Alcotest.fail "queued job ran past its deadline"
      | Error e -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string e)));
  Thread.join opener;
  ignore (Scheduler.await holder);
  Service.shutdown s

let test_service_error_isolation () =
  let s = Service.create () in
  let broken = "broken\nr1 in out\n.end\n" in
  let r = Service.run_job s (reference_job broken) in
  Alcotest.(check bool) "parse failure is an error reply" true
    (r.Protocol.status = Protocol.Error);
  Alcotest.(check (option string)) "kind" (Some "parse") (Protocol.error_kind r);
  (match Protocol.error_message r with
  | Some m ->
      Alcotest.(check bool) "file:line one-liner" true
        (String.length m > 0
        && has_line_colon m)
  | None -> Alcotest.fail "parse error carries a message");
  (* The service survives and still computes. *)
  let ok = Service.run_job s (reference_job (ua741_text ())) in
  Alcotest.(check bool) "service alive after failure" true
    (ok.Protocol.status = Protocol.Ok);
  Service.shutdown s

let test_service_sigma_refused () =
  (* Eq. 12 supports sigma 1..12: outside it the job is refused before any
     work, and a refusal is never cached. *)
  let s = Service.create () in
  let text = read_file (netlist "rc_filter.cir") in
  List.iter
    (fun sigma ->
      let job = { (reference_job text) with Protocol.sigma } in
      List.iter
        (fun attempt ->
          let r = Service.run_job s job in
          let what = Printf.sprintf "sigma %d, %s" sigma attempt in
          Alcotest.(check (option string)) (what ^ ": kind") (Some "invalid")
            (Protocol.error_kind r);
          Alcotest.(check bool) (what ^ ": not cached") false r.Protocol.cached)
        [ "first"; "repeat" ])
    [ 0; 16 ];
  Alcotest.(check int) "nothing cached" 0 (Cache.entries (Service.cache s));
  Service.shutdown s

(* --- batch --- *)

let test_batch_examples_vs_single_shot () =
  (* At the default config, then with two workers computing distinct
     reference jobs at once. *)
  List.iter
    (fun config ->
      let report = Batch.run ~config (Example_netlists.dir ()) in
      Alcotest.(check bool) "all example files succeed" true
        (report.Batch.failed = 0 && report.Batch.files >= 5);
      (* Each batch payload must be bit-identical to a fresh single-shot
         run of the same job. *)
      let s = Service.create () in
      List.iter
        (fun (o : Batch.outcome) ->
          let single =
            Service.run_job s
              {
                Protocol.default_job with
                Protocol.netlist = `Path o.Batch.file;
                id = Some o.Batch.file;
              }
          in
          Alcotest.(check string)
            (Printf.sprintf "%s bit-identical to single shot (workers = %d)"
               o.Batch.file config.Service.workers)
            (Json.to_string (Protocol.reply_to_json single))
            (Json.to_string
               (Protocol.reply_to_json { o.Batch.reply with Protocol.cached = false })))
        report.Batch.outcomes;
      Service.shutdown s)
    [ Service.default_config; { Service.default_config with Service.workers = 2 } ]

let test_batch_broken_netlist () =
  let dir = temp_dir "symref-batch-broken" in
  let write name text =
    let oc = open_out (Filename.concat dir name) in
    output_string oc text;
    close_out oc
  in
  write "a_good.cir" "rc\nr1 in out 1k\nc1 out 0 1u\nv1 in 0 ac 1\n.end\n";
  write "b_broken.cir" "broken\nr1 in out\n.end\n";
  write "c_good.cir" "rc2\nr1 in out 2k\nc1 out 0 1u\nv1 in 0 ac 1\n.end\n";
  let report = Batch.run dir in
  rm_rf dir;
  Alcotest.(check int) "three files" 3 report.Batch.files;
  Alcotest.(check int) "one failure" 1 report.Batch.failed;
  Alcotest.(check int) "two successes" 2 report.Batch.succeeded;
  let broken =
    List.find
      (fun (o : Batch.outcome) ->
        Filename.basename o.Batch.file = "b_broken.cir")
      report.Batch.outcomes
  in
  Alcotest.(check bool) "broken file is an error entry" true
    (broken.Batch.reply.Protocol.status = Protocol.Error);
  (match Protocol.error_message broken.Batch.reply with
  | Some m ->
      Alcotest.(check bool)
        ("diagnostic has file:line (" ^ m ^ ")")
        true
        (has_line_colon m)
  | None -> Alcotest.fail "error entry carries a message");
  (* The aggregate document reflects the failure too. *)
  match Json.member "failed" (Batch.report_to_json report) with
  | Some (Json.Num n) -> Alcotest.(check int) "json failed count" 1 (int_of_float n)
  | _ -> Alcotest.fail "report json has a failed field"

(* --- daemon end to end --- *)

let submit_text client ?id ?timeout_ms text =
  Serve.Client.request client
    (Protocol.Submit (reference_job ?id ?timeout_ms text))

let test_daemon_round_trip () =
  let dir = temp_dir "symref-serve-e2e" in
  let socket_path = Filename.concat dir "symref.sock" in
  let addr = Serve.Transport.Unix_sock socket_path in
  let daemon = Serve.Daemon.create ~listen:[ addr ] () in
  let daemon_thread = Thread.create Serve.Daemon.serve daemon in
  let text = ua741_text () in
  let cache = Service.cache (Serve.Daemon.service daemon) in
  Serve.Client.with_connection ~addr (fun c ->
      (match Json.member "hello" (Serve.Client.banner c) with
      | Some (Json.Str s) -> Alcotest.(check string) "banner" "symref" s
      | _ -> Alcotest.fail "daemon must greet with a hello banner");
      (* Reference job, then an identical resubmission: cache hit with a
         bit-identical payload and a hit-counter increment. *)
      let r1 = submit_text c ~id:"first" text in
      Alcotest.(check bool) "first ok" true (r1.Protocol.status = Protocol.Ok);
      Alcotest.(check bool) "first computed" false r1.Protocol.cached;
      let hits_before = Cache.hits cache in
      let r2 = submit_text c ~id:"second" text in
      Alcotest.(check bool) "second ok" true (r2.Protocol.status = Protocol.Ok);
      Alcotest.(check bool) "second from cache" true r2.Protocol.cached;
      Alcotest.(check int) "hit counter" (hits_before + 1) (Cache.hits cache);
      Alcotest.(check string) "bit-identical payload"
        (Json.to_string r1.Protocol.body)
        (Json.to_string r2.Protocol.body);
      (* Malformed line: structured protocol error, connection survives. *)
      let bad = Serve.Client.request c (Protocol.Submit Protocol.default_job) in
      Alcotest.(check bool) "empty submit is an error reply" true
        (bad.Protocol.status = Protocol.Error);
      (* Forced timeout on one connection while another completes. *)
      let fine =
        Thread.create
          (fun () ->
            Serve.Client.with_connection ~addr (fun c2 ->
                submit_text c2 ~id:"concurrent" text))
          ()
      in
      let late = submit_text c ~id:"late" ~timeout_ms:0 (text ^ "* poke\n") in
      Alcotest.(check bool) "expired deadline -> timeout status" true
        (late.Protocol.status = Protocol.Timeout);
      Thread.join fine;
      (* Stats op answers with live gauges. *)
      let stats = Serve.Client.request c Protocol.Stats in
      (match Json.member "cache" stats.Protocol.body with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "stats reply carries cache gauges");
      (* Graceful shutdown drains and answers before the socket dies. *)
      let bye = Serve.Client.request c Protocol.Shutdown in
      Alcotest.(check bool) "shutdown acknowledged" true
        (bye.Protocol.status = Protocol.Ok));
  Thread.join daemon_thread;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket_path);
  rm_rf dir

(* --- the fleet layer: transports, disk cache, router --- *)

let test_transport_parse () =
  let open Serve.Transport in
  (match parse "/tmp/symref.sock" with
  | Unix_sock p -> Alcotest.(check string) "path kept" "/tmp/symref.sock" p
  | Tcp _ -> Alcotest.fail "a path is a Unix socket");
  (match parse "127.0.0.1:7070" with
  | Tcp { host; port } ->
      Alcotest.(check string) "host" "127.0.0.1" host;
      Alcotest.(check int) "port" 7070 port
  | Unix_sock _ -> Alcotest.fail "host:port is TCP");
  (match parse ":8080" with
  | Tcp { host; port } ->
      Alcotest.(check string) "empty host is loopback" "127.0.0.1" host;
      Alcotest.(check int) "port" 8080 port
  | Unix_sock _ -> Alcotest.fail ":port is TCP");
  (match parse "sock:abc" with
  | Unix_sock p ->
      Alcotest.(check string) "non-numeric port is a path" "sock:abc" p
  | Tcp _ -> Alcotest.fail "a non-numeric suffix is not a port");
  (match parse "./v:1/symref.sock" with
  | Unix_sock _ -> ()
  | Tcp _ -> Alcotest.fail "a slash forces a path");
  (match parse "host:70000" with
  | Unix_sock _ -> ()
  | Tcp _ -> Alcotest.fail "an out-of-range port is not TCP");
  List.iter
    (fun spec ->
      Alcotest.(check string)
        ("round trip " ^ spec)
        spec
        (to_string (parse spec)))
    [ "/run/symref.sock"; "127.0.0.1:7070"; "localhost:1234" ]

let test_disk_cache_round_trip_and_corruption () =
  let dir = temp_dir "symref-disk-cache" in
  let dc = Serve.Disk_cache.create ~dir in
  let payload = "{\"answer\":42}" in
  let key = Digest.to_hex (Digest.string "job-a") in
  Alcotest.(check (option string)) "absent is a miss" None
    (Serve.Disk_cache.find dc ~key);
  Serve.Disk_cache.store dc ~key payload;
  Alcotest.(check (option string)) "round trip" (Some payload)
    (Serve.Disk_cache.find dc ~key);
  Alcotest.(check int) "one entry" 1 (Serve.Disk_cache.entries dc);
  Alcotest.(check bool) "bytes include the header" true
    (Serve.Disk_cache.bytes dc > String.length payload);
  let path = Filename.concat dir key in
  let full = read_file path in
  let rewrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  (* Truncation — a crash that somehow hit the final name — is a miss,
     never fatal. *)
  rewrite (String.sub full 0 (String.length full - 3));
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Serve.Disk_cache.find dc ~key);
  (* A flipped payload byte fails the digest check. *)
  let corrupt = Bytes.of_string full in
  Bytes.set corrupt (String.length full - 1) '\000';
  rewrite (Bytes.to_string corrupt);
  Alcotest.(check (option string)) "corrupt entry is a miss" None
    (Serve.Disk_cache.find dc ~key);
  (* So does a foreign file squatting on an entry name. *)
  rewrite "not a cache entry at all\n";
  Alcotest.(check (option string)) "foreign file is a miss" None
    (Serve.Disk_cache.find dc ~key);
  (* The next store atomically replaces the damaged file. *)
  Serve.Disk_cache.store dc ~key payload;
  Alcotest.(check (option string)) "store repairs the entry" (Some payload)
    (Serve.Disk_cache.find dc ~key);
  (* Keys that are not hex digests never touch the filesystem. *)
  Serve.Disk_cache.store dc ~key:"../escape" payload;
  Alcotest.(check (option string)) "invalid key is rejected" None
    (Serve.Disk_cache.find dc ~key:"../escape");
  Alcotest.(check int) "still one entry" 1 (Serve.Disk_cache.entries dc);
  rm_rf dir

let test_disk_cache_two_process_sharing () =
  let dir = temp_dir "symref-disk-share" in
  let payload = String.concat "," (List.init 64 string_of_int) in
  let key = Digest.to_hex (Digest.string "shared") in
  (* The writer is a genuinely separate process with its own handle on
     the shared directory — the writer side of the fleet.  It is a fresh
     executable, not a fork: OCaml 5 refuses [Unix.fork] for the rest of
     the process once any domain has been spawned. *)
  let writer =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "disk_cache_writer.exe"
  in
  let pid =
    Unix.create_process writer
      [| writer; dir; key; payload |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "writer exited cleanly" true (status = Unix.WEXITED 0);
  let dc = Serve.Disk_cache.create ~dir in
  Alcotest.(check (option string)) "reader sees the writer's entry"
    (Some payload)
    (Serve.Disk_cache.find dc ~key);
  rm_rf dir

let test_disk_cache_restart_replay () =
  let dir = temp_dir "symref-disk-restart" in
  let config =
    { Service.default_config with Service.disk_cache_dir = Some dir }
  in
  let text = ua741_text () in
  let s1 = Service.create ~config () in
  let r1 = Service.run_job s1 (reference_job text) in
  Alcotest.(check bool) "first run computes" false r1.Protocol.cached;
  Service.shutdown s1;
  (* A fresh service on the same directory — a full daemon restart: the
     in-memory LRU starts empty, the disk layer replays the entry. *)
  let s2 = Service.create ~config () in
  let r2 = Service.run_job s2 (reference_job text) in
  Alcotest.(check bool) "replayed from disk" true r2.Protocol.cached;
  Alcotest.(check string) "bit-identical across restart"
    (Json.to_string r1.Protocol.body)
    (Json.to_string r2.Protocol.body);
  (* The disk hit also warmed the LRU: the next submission hits memory. *)
  let hits_before = Cache.hits (Service.cache s2) in
  let r3 = Service.run_job s2 (reference_job text) in
  Alcotest.(check bool) "memory hit after warm" true r3.Protocol.cached;
  Alcotest.(check int) "LRU warmed by the disk hit" (hits_before + 1)
    (Cache.hits (Service.cache s2));
  Service.shutdown s2;
  rm_rf dir

let test_daemon_dual_transport_parity () =
  let dir = temp_dir "symref-serve-dual" in
  let socket_path = Filename.concat dir "symref.sock" in
  let listen =
    [
      Serve.Transport.Unix_sock socket_path;
      Serve.Transport.Tcp { host = "127.0.0.1"; port = 0 };
    ]
  in
  let daemon = Serve.Daemon.create ~listen () in
  let daemon_thread = Thread.create Serve.Daemon.serve daemon in
  let unix_addr, tcp_addr =
    match Serve.Daemon.addresses daemon with
    | [ u; t ] -> (u, t)
    | _ -> Alcotest.fail "daemon binds both listeners"
  in
  (match tcp_addr with
  | Serve.Transport.Tcp { port; _ } ->
      Alcotest.(check bool) "ephemeral port resolved" true (port > 0)
  | Serve.Transport.Unix_sock _ -> Alcotest.fail "second listener is TCP");
  let text = ua741_text () in
  let ask addr =
    Serve.Client.with_connection ~addr (fun c ->
        submit_text c ~id:"parity" text)
  in
  let over_unix = ask unix_addr in
  let over_tcp = ask tcp_addr in
  Alcotest.(check bool) "unix ok" true
    (over_unix.Protocol.status = Protocol.Ok);
  Alcotest.(check bool) "tcp ok" true (over_tcp.Protocol.status = Protocol.Ok);
  (* Same job, same daemon: the replies may differ only in the cached flag
     (the second submission hits the cache the first filled). *)
  Alcotest.(check string) "byte-identical over both transports"
    (Json.to_string
       (Protocol.reply_to_json { over_unix with Protocol.cached = false }))
    (Json.to_string
       (Protocol.reply_to_json { over_tcp with Protocol.cached = false }));
  Serve.Daemon.request_stop daemon;
  Thread.join daemon_thread;
  rm_rf dir

let test_client_version_mismatch () =
  let dir = temp_dir "symref-version" in
  let addr = Serve.Transport.Unix_sock (Filename.concat dir "old.sock") in
  let listener = Serve.Transport.listen addr in
  (* A fake daemon from the future: greets with a protocol this client
     does not speak.  connect must refuse before any request is sent. *)
  let impostor =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc
          "{\"hello\":\"symref\",\"version\":\"0.0.0\",\"protocol\":99}\n";
        flush oc;
        (try ignore (Unix.read fd (Bytes.create 1) 0 1)
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  (match Serve.Client.connect ~addr with
  | exception Serve.Errors.Error (Serve.Errors.Version_mismatch { got; want })
    ->
      Alcotest.(check int) "got the impostor's protocol" 99 got;
      Alcotest.(check int) "want ours" Protocol.protocol_version want
  | exception e ->
      Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e)
  | c ->
      Serve.Client.close c;
      Alcotest.fail "connect must refuse a protocol mismatch");
  Thread.join impostor;
  Serve.Transport.close_listener addr listener;
  rm_rf dir

let test_router_determinism_and_failover () =
  let dir = temp_dir "symref-router" in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (addr, d, Thread.create Serve.Daemon.serve d)
  in
  let addr_a, daemon_a, thread_a = mk "a.sock" in
  let addr_b, daemon_b, thread_b = mk "b.sock" in
  let router = Serve.Router.create [ addr_a; addr_b ] in
  let text = ua741_text () in
  let job = reference_job ~id:"routed" text in
  (* The routing key and the ring walk are deterministic. *)
  let key = Serve.Router.job_key job in
  Alcotest.(check string) "job key stable" key (Serve.Router.job_key job);
  let walk = Serve.Router.route router key in
  Alcotest.(check (list int)) "walk covers each worker once" [ 0; 1 ]
    (List.sort compare walk);
  Alcotest.(check bool) "owner heads the walk" true
    (Serve.Router.owner router key
    = List.nth (Serve.Router.workers router) (List.hd walk));
  (* A forwarded reply is byte-identical to a direct service run. *)
  let standalone = Service.create () in
  let direct = Service.run_job standalone (reference_job ~id:"routed" text) in
  let via_router = Serve.Router.forward router job in
  Alcotest.(check bool) "forward ok" true
    (via_router.Protocol.status = Protocol.Ok);
  Alcotest.(check string) "router relays byte-identically"
    (Json.to_string
       (Protocol.reply_to_json { direct with Protocol.cached = false }))
    (Json.to_string
       (Protocol.reply_to_json { via_router with Protocol.cached = false }));
  (* Kill the key's owner: the walk fails over to the survivor and the
     job still completes with the same bytes. *)
  let owner_addr = Serve.Router.owner router key in
  let owner_daemon, owner_thread =
    if owner_addr = addr_a then (daemon_a, thread_a) else (daemon_b, thread_b)
  in
  let survivor_daemon, survivor_thread =
    if owner_addr = addr_a then (daemon_b, thread_b) else (daemon_a, thread_a)
  in
  Serve.Daemon.request_stop owner_daemon;
  Thread.join owner_thread;
  let failed_over = Serve.Router.forward router job in
  Alcotest.(check bool) "failover completes the job" true
    (failed_over.Protocol.status = Protocol.Ok);
  Alcotest.(check string) "failover reply byte-identical"
    (Json.to_string
       (Protocol.reply_to_json { direct with Protocol.cached = false }))
    (Json.to_string
       (Protocol.reply_to_json { failed_over with Protocol.cached = false }));
  (* The prober records the casualty; stats list both workers. *)
  Serve.Router.health_check router;
  (match Json.member "workers" (Serve.Router.stats_json router) with
  | Some (Json.Arr ws) ->
      Alcotest.(check int) "two workers in stats" 2 (List.length ws);
      let alive =
        List.filter
          (fun w -> Json.member "alive" w = Some (Json.Bool true))
          ws
      in
      Alcotest.(check int) "one survivor alive" 1 (List.length alive)
  | _ -> Alcotest.fail "router stats list the workers");
  Serve.Daemon.request_stop survivor_daemon;
  Thread.join survivor_thread;
  Service.shutdown standalone;
  rm_rf dir

(* --- resilience layer: jitter, breakers, supervisor, hedging, scrub --- *)

module Metrics = Symref_obs.Metrics
module Snapshot = Symref_obs.Snapshot
module Supervisor = Serve.Supervisor

let test_probe_jitter () =
  (* Pure in (salt, n) and bounded: the prober's and the supervisor's
     deterministic jitter — a replayed schedule must be identical. *)
  for salt = 0 to 5 do
    for n = 0 to 20 do
      let j = Serve.Router.probe_jitter ~salt n in
      Alcotest.(check bool) "jitter in [0.8, 1.2)" true (j >= 0.8 && j < 1.2);
      Alcotest.(check (float 0.)) "jitter pure" j
        (Serve.Router.probe_jitter ~salt n)
    done
  done;
  let all = List.init 32 (fun n -> Serve.Router.probe_jitter ~salt:1 n) in
  Alcotest.(check bool) "jitter varies across probes" true
    (List.exists (fun j -> Float.abs (j -. List.hd all) > 1e-6) all)

let rc_text name =
  Printf.sprintf "%s\nv1 in 0 ac 1\nr1 in out 2k\nc1 out 0 1n\n.end\n" name

let norm_reply r =
  Json.to_string (Protocol.reply_to_json { r with Protocol.cached = false })

let test_breaker_lifecycle () =
  let dir = temp_dir "symref-breaker" in
  let addr = Serve.Transport.Unix_sock (Filename.concat dir "w.sock") in
  Metrics.reset ();
  Metrics.enable ();
  let breaker =
    { Serve.Router.threshold = 2; cooldown_ms = 50.; max_cooldown_ms = 1_000. }
  in
  let router = Serve.Router.create ~breaker ~hedge:None [ addr ] in
  let job = reference_job ~id:"breaker" (rc_text "breaker") in
  (* No daemon behind the socket: failures accumulate to the threshold,
     then the circuit opens. *)
  let r1 = Serve.Router.forward router job in
  Alcotest.(check bool) "first failure relayed as error" true
    (r1.Protocol.status = Protocol.Error);
  Alcotest.(check bool) "below threshold stays closed" true
    (Serve.Router.breaker_state router 0 = `Closed);
  ignore (Serve.Router.forward router job);
  Alcotest.(check bool) "threshold opens the breaker" true
    (Serve.Router.breaker_state router 0 = `Open);
  (* Past the cooldown and against a live daemon, the half-open probe
     admits one request and its success closes the circuit. *)
  let d = Serve.Daemon.create ~listen:[ addr ] () in
  let th = Thread.create Serve.Daemon.serve d in
  Unix.sleepf 0.08;
  let r3 = Serve.Router.forward router job in
  Alcotest.(check bool) "half-open probe succeeds" true
    (r3.Protocol.status = Protocol.Ok);
  Alcotest.(check bool) "success closes the breaker" true
    (Serve.Router.breaker_state router 0 = `Closed);
  let v = Snapshot.value (Snapshot.capture ()) in
  Alcotest.(check bool) "open/half-open/close all counted" true
    (v Metrics.router_breaker_opens >= 1
    && v Metrics.router_breaker_half_opens >= 1
    && v Metrics.router_breaker_closes >= 1);
  Serve.Daemon.request_stop d;
  Thread.join th;
  Metrics.disable ();
  Metrics.reset ();
  rm_rf dir

let sh_spawn cmd =
  Unix.create_process "/bin/sh"
    [| "sh"; "-c"; cmd |]
    Unix.stdin Unix.stdout Unix.stderr

let test_supervisor_restart_and_giveup () =
  let config =
    {
      Supervisor.restart_delay_ms = 5.;
      max_restart_delay_ms = 10.;
      crash_budget = 2;
      crash_window_s = 60.;
    }
  in
  let sup =
    Supervisor.create ~config ~slots:1
      ~spawn:(fun ~slot:_ -> sh_spawn "exit 7")
      ()
  in
  Supervisor.start sup;
  (* Drive the supervision loop by hand with a far-future clock: every
     beat reaps the instantly-crashing child and restarts it, until the
     crash budget gives the slot up — no real backoff waiting needed. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec drive () =
    match Supervisor.slot_state sup 0 with
    | Supervisor.Given_up -> ()
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "supervisor never exhausted the crash budget"
    | _ ->
        Supervisor.step ~now:(Unix.gettimeofday () +. 3600.) sup;
        Unix.sleepf 0.01;
        drive ()
  in
  drive ();
  Alcotest.(check int) "budget-many restarts before giving up" 2
    (Supervisor.restarts sup);
  Supervisor.stop ~grace_s:0.1 sup

let test_supervisor_stop_terminates () =
  let sup =
    Supervisor.create ~slots:2
      ~spawn:(fun ~slot:_ -> sh_spawn "exec sleep 30")
      ()
  in
  Supervisor.start sup;
  let pids =
    List.filter_map
      (fun i ->
        match Supervisor.slot_state sup i with
        | Supervisor.Running pid -> Some pid
        | _ -> None)
      [ 0; 1 ]
  in
  Alcotest.(check int) "both slots running" 2 (List.length pids);
  let t0 = Unix.gettimeofday () in
  Supervisor.stop ~grace_s:0.5 sup;
  Alcotest.(check bool) "stop escalates and returns promptly" true
    (Unix.gettimeofday () -. t0 < 5.);
  List.iter
    (fun i ->
      Alcotest.(check bool) "slot wound down" true
        (Supervisor.slot_state sup i = Supervisor.Given_up))
    [ 0; 1 ];
  List.iter
    (fun pid ->
      let gone =
        match Unix.kill pid 0 with
        | () -> false
        | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
        | exception Unix.Unix_error _ -> true
      in
      Alcotest.(check bool) "child reaped, no zombie left" true gone)
    pids

let test_hedged_unhedged_identity () =
  let dir = temp_dir "symref-hedge" in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (addr, d, Thread.create Serve.Daemon.serve d)
  in
  let addr_a, daemon_a, thread_a = mk "a.sock" in
  let addr_b, daemon_b, thread_b = mk "b.sock" in
  let addrs = [ addr_a; addr_b ] in
  (* Zero hedge delay duplicates every submit: whichever copy wins the
     race, the reply must be the same bytes an unhedged walk produces. *)
  let hedged =
    Serve.Router.create
      ~hedge:
        (Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. })
      addrs
  in
  let unhedged = Serve.Router.create ~hedge:None addrs in
  Alcotest.(check (float 0.)) "hedge delay clamps to the forced max" 0.
    (Serve.Router.hedge_delay_ms hedged);
  for i = 0 to 3 do
    let job =
      reference_job ~id:"hedge" (rc_text (Printf.sprintf "hedge%d" i))
    in
    let ru = Serve.Router.forward unhedged job in
    let rh = Serve.Router.forward hedged job in
    Alcotest.(check bool) "unhedged ok" true (ru.Protocol.status = Protocol.Ok);
    Alcotest.(check bool) "hedged ok" true (rh.Protocol.status = Protocol.Ok);
    Alcotest.(check string) "hedged reply byte-identical to unhedged"
      (norm_reply ru) (norm_reply rh)
  done;
  List.iter
    (fun (d, th) ->
      Serve.Daemon.request_stop d;
      Thread.join th)
    [ (daemon_a, thread_a); (daemon_b, thread_b) ];
  rm_rf dir

let test_worker_flapping_chaos () =
  let dir = temp_dir "symref-flap" in
  let addr i = Serve.Transport.Unix_sock (Filename.concat dir (Printf.sprintf "w%d.sock" i)) in
  let start i =
    let d = Serve.Daemon.create ~listen:[ addr i ] () in
    (d, Thread.create Serve.Daemon.serve d)
  in
  let daemons = [| start 0; start 1 |] in
  Metrics.reset ();
  Metrics.enable ();
  let breaker =
    { Serve.Router.threshold = 1; cooldown_ms = 30.; max_cooldown_ms = 200. }
  in
  let router = Serve.Router.create ~breaker ~hedge:None [ addr 0; addr 1 ] in
  let job = reference_job ~id:"flap" (rc_text "flap") in
  let owner = List.hd (Serve.Router.route router (Serve.Router.job_key job)) in
  let baseline = Serve.Router.forward router job in
  Alcotest.(check bool) "healthy forward ok" true
    (baseline.Protocol.status = Protocol.Ok);
  (* Flap the owner twice: kill it mid-fleet, watch the failover reply stay
     byte-identical and the breaker open; restart it on the same socket and
     watch the half-open probe close the circuit again. *)
  for _round = 1 to 2 do
    let d, th = daemons.(owner) in
    Serve.Daemon.request_stop d;
    Thread.join th;
    let r = Serve.Router.forward router job in
    Alcotest.(check bool) "failover ok" true (r.Protocol.status = Protocol.Ok);
    Alcotest.(check string) "failover byte-identical" (norm_reply baseline)
      (norm_reply r);
    Alcotest.(check bool) "owner breaker open" true
      (Serve.Router.breaker_state router owner = `Open);
    daemons.(owner) <- start owner;
    Unix.sleepf 0.08;
    let r2 = Serve.Router.forward router job in
    Alcotest.(check bool) "recovered ok" true (r2.Protocol.status = Protocol.Ok);
    Alcotest.(check string) "recovered byte-identical" (norm_reply baseline)
      (norm_reply r2);
    Alcotest.(check bool) "owner breaker closed again" true
      (Serve.Router.breaker_state router owner = `Closed)
  done;
  let v = Snapshot.value (Snapshot.capture ()) in
  Alcotest.(check bool) "flap transitions counted" true
    (v Metrics.router_breaker_opens >= 2 && v Metrics.router_breaker_closes >= 2);
  Metrics.disable ();
  Metrics.reset ();
  Array.iter
    (fun (d, th) ->
      Serve.Daemon.request_stop d;
      Thread.join th)
    daemons;
  rm_rf dir

let test_disk_cache_scrub () =
  let dir = temp_dir "symref-scrub" in
  let plant name =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc "junk")
  in
  plant ".tmp.123.abc";
  plant ".tmp.9999.def";
  Metrics.reset ();
  Metrics.enable ();
  let d = Serve.Disk_cache.create ~dir in
  let snap = Snapshot.capture () in
  Alcotest.(check int) "orphaned staging files scrubbed" 2
    (Snapshot.value snap Metrics.serve_disk_cache_scrubbed);
  Alcotest.(check bool) "tmp files gone from the directory" true
    (Array.for_all
       (fun f -> not (String.starts_with ~prefix:".tmp." f))
       (Sys.readdir dir));
  (* The scrubbed directory still works as a cache (keys are hex digests). *)
  let key = Digest.to_hex (Digest.string "scrub") in
  Serve.Disk_cache.store d ~key "payload";
  Alcotest.(check (option string)) "entry round-trips" (Some "payload")
    (Serve.Disk_cache.find d ~key);
  Metrics.disable ();
  Metrics.reset ();
  rm_rf dir

let test_client_version_compat () =
  (* An older daemon whose protocol is still within
     [min_protocol_version, protocol_version] must be accepted: rolling
     restarts mix versions, and v2 is a pure extension of v1. *)
  let dir = temp_dir "symref-compat" in
  let addr = Serve.Transport.Unix_sock (Filename.concat dir "v1.sock") in
  let listener = Serve.Transport.listen addr in
  let elder =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc
          (Printf.sprintf
             "{\"hello\":\"symref\",\"version\":\"0.0.0\",\"protocol\":%d}\n"
             Protocol.min_protocol_version);
        flush oc;
        (try ignore (Unix.read fd (Bytes.create 1) 0 1)
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  (match Serve.Client.connect ~addr with
  | c ->
      let got =
        match Json.member "protocol" (Serve.Client.banner c) with
        | Some v -> Json.to_int v
        | None -> -1
      in
      Alcotest.(check int) "banner carries the elder protocol"
        Protocol.min_protocol_version got;
      Serve.Client.close c
  | exception e ->
      Alcotest.fail
        ("compatible older protocol refused: " ^ Printexc.to_string e));
  Thread.join elder;
  Serve.Transport.close_listener addr listener;
  rm_rf dir

let test_hedged_fatal_no_hang () =
  (* Both ring candidates greet with an incompatible protocol: every
     exchange raises the non-transient [Version_mismatch].  The hedged
     race must still resolve — each racer reports the fatal outcome
     instead of dying with it — and the client gets a structured
     [protocol] reply rather than a hang (the review-flagged deadlock:
     an escaped racer exception left the coordinator in Condition.wait
     forever). *)
  let dir = temp_dir "symref-fatal" in
  let stop = ref false in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let listener = Serve.Transport.listen addr in
    let th =
      Thread.create
        (fun () ->
          (* Poll-accept like the real daemons: a blocking accept would
             never notice the listener closing under it and wedge the
             test's own Thread.join. *)
          let rec loop () =
            if not !stop then begin
              (match Unix.select [ listener ] [] [] 0.05 with
              | exception Unix.Unix_error _ -> ()
              | [], _, _ -> ()
              | _ :: _, _, _ -> (
                  match Unix.accept listener with
                  | fd, _ ->
                      let oc = Unix.out_channel_of_descr fd in
                      (try
                         output_string oc
                           "{\"hello\":\"symref\",\"version\":\"0.0.0\",\"protocol\":99}\n";
                         flush oc
                       with Sys_error _ | Unix.Unix_error _ -> ());
                      (try Unix.close fd with Unix.Unix_error _ -> ())
                  | exception Unix.Unix_error _ -> ()));
              loop ()
            end
          in
          loop ())
        ()
    in
    (addr, listener, th)
  in
  let a = mk "a.sock" and b = mk "b.sock" in
  let addr_of (addr, _, _) = addr in
  let router =
    Serve.Router.create
      ~hedge:
        (Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. })
      [ addr_of a; addr_of b ]
  in
  let reply =
    Serve.Router.forward router (reference_job ~id:"fatal" (rc_text "fatal"))
  in
  Alcotest.(check bool) "fatal race resolves to an error reply" true
    (reply.Protocol.status = Protocol.Error);
  Alcotest.(check (option string)) "reply kind names the protocol failure"
    (Some "protocol")
    (Protocol.error_kind reply);
  stop := true;
  List.iter
    (fun (addr, listener, th) ->
      Thread.join th;
      Serve.Transport.close_listener addr listener)
    [ a; b ];
  rm_rf dir

let test_breaker_untried_candidate_stays_open () =
  (* A recovered-but-untried candidate must keep its [Open] state: only a
     request actually sent claims the half-open probe slot.  (The flagged
     bug: merely filtering candidates flipped every expired-open breaker
     to Half_open, parking a recovered worker out of rotation.) *)
  let dir = temp_dir "symref-unclaimed" in
  let addr i =
    Serve.Transport.Unix_sock (Filename.concat dir (Printf.sprintf "w%d.sock" i))
  in
  let d = Serve.Daemon.create ~listen:[ addr 0 ] () in
  let th = Thread.create Serve.Daemon.serve d in
  let breaker =
    { Serve.Router.threshold = 1; cooldown_ms = 30.; max_cooldown_ms = 200. }
  in
  (* Worker 1 has no daemon behind it. *)
  let router = Serve.Router.create ~breaker ~hedge:None [ addr 0; addr 1 ] in
  let job_owned_by w =
    let rec find i =
      if i > 200 then Alcotest.fail "no job found for owner"
      else
        let job =
          reference_job ~id:"owner" (rc_text (Printf.sprintf "own%d" i))
        in
        if List.hd (Serve.Router.route router (Serve.Router.job_key job)) = w
        then job
        else find (i + 1)
    in
    find 0
  in
  (* Open the dead worker's breaker by routing one job it owns. *)
  let r = Serve.Router.forward router (job_owned_by 1) in
  Alcotest.(check bool) "failover still answers" true
    (r.Protocol.status = Protocol.Ok);
  Alcotest.(check bool) "dead owner's breaker open" true
    (Serve.Router.breaker_state router 1 = `Open);
  (* Past the cooldown, forward a job the live worker owns: worker 1 is a
     listed candidate but never contacted, so it must stay Open — not be
     flipped Half_open by candidate filtering. *)
  Unix.sleepf 0.06;
  let r2 = Serve.Router.forward router (job_owned_by 0) in
  Alcotest.(check bool) "live owner answers" true
    (r2.Protocol.status = Protocol.Ok);
  Alcotest.(check bool) "untried candidate keeps its Open state" true
    (Serve.Router.breaker_state router 1 = `Open);
  Serve.Daemon.request_stop d;
  Thread.join th;
  rm_rf dir

let test_scheduler_sweeper_eviction () =
  (* Every running slot is pinned and no further submission arrives: the
     background sweeper alone must evict the expired queued job, or the
     daemon's blocking await would hold its client past the deadline
     indefinitely.  Eviction counts only in [serve.evicted_jobs] —
     [serve.shed_jobs] stays the admission-shed path. *)
  Metrics.reset ();
  Metrics.enable ();
  let s = Scheduler.create ~workers:1 ~queue:4 () in
  let gate = Mutex.create () in
  let open_gate = Condition.create () in
  let released = ref false in
  let blocked () =
    Mutex.lock gate;
    while not !released do
      Condition.wait open_gate gate
    done;
    Mutex.unlock gate;
    0
  in
  let holder = Scheduler.submit s blocked in
  Alcotest.(check bool) "holder admitted" true (is_admitted holder);
  let doomed =
    Scheduler.submit ~deadline:(Unix.gettimeofday () +. 0.15) s (fun () -> 9)
  in
  Alcotest.(check bool) "doomed admitted to the queue" true
    (is_admitted doomed);
  (* No slot frees and nothing else is submitted: only the sweeper can
     resolve the ticket.  [await] returning at all is the regression
     assertion. *)
  (match Scheduler.await (ticket_of doomed) with
  | Error (Scheduler.Evicted { retry_after_ms }) ->
      Alcotest.(check bool) "eviction carries a positive retry hint" true
        (retry_after_ms > 0.)
  | Ok _ -> Alcotest.fail "doomed job must not run"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string e));
  Alcotest.(check bool) "holder still running while doomed resolved" true
    (Scheduler.peek (ticket_of holder) = None);
  let v = Snapshot.value (Snapshot.capture ()) in
  Alcotest.(check int) "eviction counted once" 1 (v Metrics.serve_evicted_jobs);
  Alcotest.(check int) "eviction does not count as shed" 0
    (v Metrics.serve_shed_jobs);
  Mutex.lock gate;
  released := true;
  Condition.broadcast open_gate;
  Mutex.unlock gate;
  Alcotest.(check bool) "holder finished" true
    (Scheduler.await (ticket_of holder) = Ok 0);
  Scheduler.shutdown s;
  Metrics.disable ();
  Metrics.reset ()

(* --- the connection pool and the thread-free hedge race --- *)

module Race = Serve.Router.Race

(* Finished handlers leave the live set (and close their sockets), so a
   long-running server holds no entry per served connection. *)
let test_conns_drop_finished () =
  let conns = Serve.Conns.create () in
  let peers =
    List.init 20 (fun _ ->
        let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Serve.Conns.spawn conns (fun _ -> ()) mine;
        theirs)
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while Serve.Conns.live conns > 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check int) "every finished handler dropped" 0
    (Serve.Conns.live conns);
  (* Each handler's socket was closed on exit: the peer reads end-of-file. *)
  List.iter
    (fun fd ->
      Alcotest.(check int) "peer sees the close" 0
        (Unix.read fd (Bytes.create 1) 0 1);
      Unix.close fd)
    peers;
  Serve.Conns.shutdown conns

(* A test-local worker that speaks the protocol: the banner, then one
   reply per request line, each echoing the job's id and netlist and
   naming the worker, so a reply read off the wrong connection shows.  It
   counts accepts; [delay n] holds the reply to its [n]-th submit (counted
   across connections), and [drop n] closes that submit's connection
   without replying — a worker that died after the router's staleness
   check. *)
type fake = {
  f_addr : Serve.Transport.address;
  accepts : int Atomic.t;
  f_stop : unit -> unit;
}

let fake_worker ?(delay = fun _ -> 0.) ?(drop = fun _ -> false) dir name =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
  let listener = Serve.Transport.listen addr in
  let accepts = Atomic.make 0 and submits = Atomic.make 0 in
  let stop = Atomic.make false in
  let handle fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let send json =
      output_string oc (Json.to_string json);
      output_char oc '\n';
      flush oc
    in
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line -> (
          match Protocol.request_of_json (Json.parse line) with
          | Protocol.Submit job ->
              let n = Atomic.fetch_and_add submits 1 in
              if not (drop n) then begin
                Unix.sleepf (delay n);
                let text =
                  match job.Protocol.netlist with `Text s -> s | `Path p -> p
                in
                let body =
                  Json.Obj [ ("echo", Json.Str text); ("from", Json.Str name) ]
                in
                let reply = Protocol.ok ~id:job.Protocol.id body in
                send (Protocol.reply_to_json reply);
                loop ()
              end
          | _ ->
              let hello = Protocol.ok (Protocol.hello_banner ()) in
              send (Protocol.reply_to_json hello);
              loop ())
    in
    (try
       send (Protocol.hello_banner ());
       loop ()
     with Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ listener ] [] [] 0.05 with
      | exception Unix.Unix_error _ -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listener with
          | fd, _ ->
              Atomic.incr accepts;
              ignore (Thread.create handle fd)
          | exception Unix.Unix_error _ -> ()));
      accept_loop ()
    end
  in
  let th = Thread.create accept_loop () in
  {
    f_addr = addr;
    accepts;
    f_stop =
      (fun () ->
        Atomic.set stop true;
        Thread.join th;
        Serve.Transport.close_listener addr listener);
  }

(* A job whose ring walk starts at worker [w]. *)
let job_owned_by router ~prefix w =
  let rec find i =
    if i > 500 then Alcotest.fail "no job found for owner"
    else
      let job =
        reference_job
          ~id:(Printf.sprintf "%s%d" prefix i)
          (rc_text (Printf.sprintf "%s%d" prefix i))
      in
      if List.hd (Serve.Router.route router (Serve.Router.job_key job)) = w
      then job
      else find (i + 1)
  in
  find 0

let check_echo what (job : Protocol.job) ~from (r : Protocol.reply) =
  Alcotest.(check bool) (what ^ ": ok") true (r.Protocol.status = Protocol.Ok);
  Alcotest.(check (option string)) (what ^ ": own id") job.Protocol.id
    r.Protocol.reply_id;
  let text = match job.Protocol.netlist with `Text s -> s | `Path p -> p in
  Alcotest.(check (option string)) (what ^ ": own payload") (Some text)
    (match Json.member "echo" r.Protocol.body with
    | Some (Json.Str s) -> Some s
    | _ -> None);
  Alcotest.(check (option string)) (what ^ ": answered by") (Some from)
    (match Json.member "from" r.Protocol.body with
    | Some (Json.Str s) -> Some s
    | _ -> None)

let test_pool_one_accept () =
  let dir = temp_dir "symref-pool" in
  let solo = fake_worker dir "solo.sock" in
  let a = fake_worker dir "a.sock" and b = fake_worker dir "b.sock" in
  let fifty router ~owner name =
    for i = 1 to 50 do
      let prefix = Printf.sprintf "%s%d-" name i in
      let job = job_owned_by router ~prefix owner in
      check_echo name job ~from:(Printf.sprintf "%s.sock" name)
        (Serve.Router.forward router job)
    done;
    Serve.Router.close router
  in
  fifty (Serve.Router.create ~hedge:None [ solo.f_addr ]) ~owner:0 "solo";
  Alcotest.(check int) "unhedged: one accept for 50 forwards" 1
    (Atomic.get solo.accepts);
  (* Hedging on (its delay never passes against a worker this quick): the
     race still sends every forward over the one pooled connection. *)
  fifty (Serve.Router.create [ a.f_addr; b.f_addr ]) ~owner:0 "a";
  Alcotest.(check int) "hedged: one accept for 50 forwards" 1
    (Atomic.get a.accepts);
  Alcotest.(check int) "hedged: the other worker never dialled" 0
    (Atomic.get b.accepts);
  List.iter (fun f -> f.f_stop ()) [ solo; a; b ];
  rm_rf dir

let test_pool_worker_restart () =
  let dir = temp_dir "symref-pool-restart" in
  let addr = Serve.Transport.Unix_sock (Filename.concat dir "w.sock") in
  let start () =
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (d, Thread.create Serve.Daemon.serve d)
  in
  let stop (d, th) =
    Serve.Daemon.request_stop d;
    Thread.join th
  in
  (* One attempt and a threshold of 1: a single charged failure would
     lose the forward and open the breaker. *)
  let breaker = { Serve.Router.default_breaker with threshold = 1 } in
  let backoff =
    { Serve.Client.default_backoff with Serve.Client.attempts = 1 }
  in
  let router = Serve.Router.create ~backoff ~breaker ~hedge:None [ addr ] in
  let job = reference_job ~id:"restart" (rc_text "restart") in
  let w = start () in
  let before = Serve.Router.forward router job in
  Alcotest.(check bool) "first forward ok" true
    (before.Protocol.status = Protocol.Ok);
  (* The pooled connection now points at a dead process. *)
  stop w;
  let w = start () in
  let after = Serve.Router.forward router job in
  Alcotest.(check bool) "forward after the restart ok" true
    (after.Protocol.status = Protocol.Ok);
  Alcotest.(check string) "byte-identical across the restart"
    (norm_reply before) (norm_reply after);
  Alcotest.(check bool) "breaker stays closed" true
    (Serve.Router.breaker_state router 0 = `Closed);
  stop w;
  Serve.Router.close router;
  (* A pooled connection that passes the staleness check but dies before
     the reply (the worker's second submit drops it): re-sent once on a
     fresh connection, free of charge. *)
  let f = fake_worker ~drop:(fun n -> n = 1) dir "drop.sock" in
  let router = Serve.Router.create ~backoff ~breaker ~hedge:None [ f.f_addr ] in
  let job1 = reference_job ~id:"stale1" (rc_text "stale1") in
  let job2 = reference_job ~id:"stale2" (rc_text "stale2") in
  check_echo "first" job1 ~from:"drop.sock" (Serve.Router.forward router job1);
  check_echo "re-sent" job2 ~from:"drop.sock"
    (Serve.Router.forward router job2);
  Alcotest.(check int) "one fresh connection for the re-send" 2
    (Atomic.get f.accepts);
  Alcotest.(check bool) "stale re-send charges no breaker" true
    (Serve.Router.breaker_state router 0 = `Closed);
  Serve.Router.close router;
  f.f_stop ();
  rm_rf dir

let test_hedge_loser_not_pooled () =
  let dir = temp_dir "symref-pool-hedge" in
  (* Worker a is slow on its first submit only, worker b on every submit
     after its first: the first race goes to the hedge, the second to the
     primary — which must answer on a connection of its own, not on the
     abandoned one still carrying the first job. *)
  let a =
    fake_worker ~delay:(fun n -> if n = 0 then 0.3 else 0.) dir "a.sock"
  in
  let b =
    fake_worker ~delay:(fun n -> if n = 0 then 0. else 0.6) dir "b.sock"
  in
  Metrics.reset ();
  Metrics.enable ();
  let router =
    Serve.Router.create
      ~hedge:
        (Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. })
      [ a.f_addr; b.f_addr ]
  in
  let first = job_owned_by router ~prefix:"slow" 0 in
  let second = job_owned_by router ~prefix:"next" 0 in
  check_echo "hedge wins" first ~from:"b.sock"
    (Serve.Router.forward router first);
  check_echo "next forward" second ~from:"a.sock"
    (Serve.Router.forward router second);
  let v = Snapshot.value (Snapshot.capture ()) in
  Alcotest.(check int) "two hedges fired" 2 (v Metrics.router_hedges);
  Alcotest.(check int) "one hedge win" 1 (v Metrics.router_hedge_wins);
  Metrics.disable ();
  Metrics.reset ();
  Serve.Router.close router;
  a.f_stop ();
  b.f_stop ();
  rm_rf dir

(* A hedge that claimed a recovering worker's half-open probe and then
   lost the race hands the probe back: the breaker returns to Open (its
   cooldown passed) rather than staying half-open with no probe out. *)
let test_abandoned_probe_released () =
  let dir = temp_dir "symref-pool-probe" in
  let a = fake_worker dir "a.sock" in
  let b_addr = Serve.Transport.Unix_sock (Filename.concat dir "b.sock") in
  let breaker =
    { Serve.Router.threshold = 1; cooldown_ms = 30.; max_cooldown_ms = 200. }
  in
  let backoff =
    { Serve.Client.default_backoff with Serve.Client.attempts = 1 }
  in
  let router =
    Serve.Router.create ~backoff ~breaker
      ~hedge:
        (Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. })
      [ a.f_addr; b_addr ]
  in
  (* Nothing listens on b yet: a job it owns opens its breaker and fails
     over to a. *)
  let owned_by_b = job_owned_by router ~prefix:"probe-b" 1 in
  check_echo "failover" owned_by_b ~from:"a.sock"
    (Serve.Router.forward router owned_by_b);
  Alcotest.(check bool) "b open" true (Serve.Router.breaker_state router 1 = `Open);
  (* b comes back slow; past its cooldown, a's job hedges onto b at once,
     claiming b's probe, and a's quicker answer cuts b off. *)
  let b = fake_worker ~delay:(fun n -> if n = 0 then 0.3 else 0.) dir "b.sock" in
  Unix.sleepf 0.06;
  let owned_by_a = job_owned_by router ~prefix:"probe-a" 0 in
  check_echo "primary wins" owned_by_a ~from:"a.sock"
    (Serve.Router.forward router owned_by_a);
  Alcotest.(check bool) "abandoned probe handed back" true
    (Serve.Router.breaker_state router 1 = `Open);
  (* The next probe through closes it. *)
  Serve.Router.health_check router;
  Alcotest.(check bool) "b closed after a real probe" true
    (Serve.Router.breaker_state router 1 = `Closed);
  Serve.Router.close router;
  a.f_stop ();
  b.f_stop ();
  rm_rf dir

(* Past select's FD_SETSIZE the worker sockets get descriptors select
   cannot watch: forwards, hedged ones included, must still answer. *)
let test_router_past_select_limit () =
  let dir = temp_dir "symref-fdlimit" in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (addr, d, Thread.create Serve.Daemon.serve d)
  in
  let a = mk "a.sock" and b = mk "b.sock" in
  let addrs = List.map (fun (addr, _, _) -> addr) [ a; b ] in
  let padding = ref [] in
  (try
     for _ = 1 to 1100 do
       padding := Unix.dup Unix.stdin :: !padding
     done
   with Unix.Unix_error (Unix.EMFILE, _, _) -> ());
  List.iter
    (fun hedge ->
      let router = Serve.Router.create ~hedge addrs in
      for i = 0 to 3 do
        let job =
          reference_job ~id:"fdlimit" (rc_text (Printf.sprintf "fdlimit%d" i))
        in
        let r = Serve.Router.forward router job in
        Alcotest.(check bool) "forward ok past the select limit" true
          (r.Protocol.status = Protocol.Ok)
      done;
      Serve.Router.close router)
    [
      None;
      Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. };
    ];
  List.iter Unix.close !padding;
  List.iter
    (fun (_, d, th) ->
      Serve.Daemon.request_stop d;
      Thread.join th)
    [ a; b ];
  rm_rf dir

(* --- deadlines over the whole job --- *)

module Inject = Symref_fault.Inject

let with_fault point ?payload plan f =
  Fun.protect ~finally:Inject.disable (fun () ->
      Inject.enable ();
      Inject.arm ?payload point plan;
      f ())

let test_service_health_under_deadline () =
  (* rc_filter's generation evaluates 12 points; the delay then falls on
     the 6 health probes, 100 ms each.  The probes run under the job's
     deadline, so the job times out near 300 ms instead of answering [ok]
     after 600 ms of probes. *)
  let s = Service.create () in
  let job = reference_job ~id:"probes" (read_file (netlist "rc_filter.cir")) in
  let r =
    with_fault Inject.eval_delay ~payload:100.
      (Inject.Times { skip = 12; count = 6 })
      (fun () -> Service.run_job s ~deadline:(Unix.gettimeofday () +. 0.3) job)
  in
  Alcotest.(check bool) "timeout status" true (r.Protocol.status = Protocol.Timeout);
  Alcotest.(check int) "nothing cached" 0 (Cache.entries (Service.cache s));
  Service.shutdown s

let test_batch_evicted_is_timeout () =
  (* One worker, every evaluation 60 ms late, 300 ms per job: the first
     job times out while it runs, the three behind it are evicted from the
     queue at their deadlines.  All four are timeouts. *)
  let dir = temp_dir "symref-batch-evict" in
  let text = read_file (netlist "rc_filter.cir") in
  for i = 1 to 4 do
    let oc = open_out (Filename.concat dir (Printf.sprintf "rc_%d.cir" i)) in
    output_string oc text;
    close_out oc
  done;
  let config =
    { Service.default_config with workers = 1; default_timeout_ms = Some 300 }
  in
  let report =
    with_fault Inject.eval_delay ~payload:60. (Inject.Every 1) (fun () ->
        Batch.run ~config dir)
  in
  rm_rf dir;
  Alcotest.(check int) "four timed out" 4 report.Batch.timed_out;
  List.iter
    (fun (o : Batch.outcome) ->
      Alcotest.(check (option string))
        (Filename.basename o.Batch.file ^ " kind")
        (Some "timeout")
        (Protocol.error_kind o.Batch.reply))
    report.Batch.outcomes

(* --- the router's front, in process --- *)

let test_router_front () =
  let dir = temp_dir "symref-front" in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (addr, d, Thread.create Serve.Daemon.serve d)
  in
  let workers = [ mk "a.sock"; mk "b.sock" ] in
  (* No hedge: the job must reach its owner only. *)
  let router =
    Serve.Router.create ~hedge:None (List.map (fun (a, _, _) -> a) workers)
  in
  let front_path = Filename.concat dir "front.sock" in
  let server =
    Serve.Router.create_server
      ~listen:[ Serve.Transport.Unix_sock front_path ]
      router
  in
  let front = List.hd (Serve.Router.server_addresses server) in
  let server_thread = Thread.create Serve.Router.serve server in
  Serve.Client.with_connection ~addr:front (fun c ->
      (match Json.member "hello" (Serve.Client.banner c) with
      | Some (Json.Str s) -> Alcotest.(check string) "banner" "symref" s
      | _ -> Alcotest.fail "the front must greet with a hello banner");
      let hello = Serve.Client.request c Protocol.Hello in
      Alcotest.(check string) "hello returns the banner"
        (Json.to_string (Serve.Client.banner c))
        (Json.to_string hello.Protocol.body);
      (* Through the front first, then straight to the job's owner, which
         now answers from its cache. *)
      let job = reference_job ~id:"fronted" (read_file (netlist "rc_filter.cir")) in
      let fronted = Serve.Client.request c (Protocol.Submit job) in
      let owner_addr = Serve.Router.owner router (Serve.Router.job_key job) in
      let direct =
        Serve.Client.with_connection ~addr:owner_addr (fun d ->
            Serve.Client.request d (Protocol.Submit job))
      in
      Alcotest.(check bool) "fronted reply computed" false fronted.Protocol.cached;
      Alcotest.(check bool) "owner computed it" true direct.Protocol.cached;
      Alcotest.(check string) "front reply byte-identical to the owner's"
        (Json.to_string
           (Protocol.reply_to_json { direct with Protocol.cached = false }))
        (Json.to_string (Protocol.reply_to_json fronted)));
  (* A raw connection: a malformed line gets a protocol error, a blank line
     is skipped, and the connection keeps answering. *)
  let fd = Serve.Transport.connect front in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  ignore (input_line ic);
  let exchange line =
    output_string oc line;
    flush oc;
    Protocol.reply_of_json (Json.parse (input_line ic))
  in
  let bad = exchange "{not json\n" in
  Alcotest.(check (option string)) "malformed line" (Some "protocol")
    (Protocol.error_kind bad);
  let again =
    exchange
      ("\n" ^ Json.to_string (Protocol.request_to_json Protocol.Hello) ^ "\n")
  in
  Alcotest.(check bool) "connection still answers" true
    (again.Protocol.status = Protocol.Ok);
  Unix.close fd;
  let bye =
    Serve.Client.with_connection ~addr:front (fun c ->
        Serve.Client.request c Protocol.Shutdown)
  in
  Alcotest.(check bool) "shutdown acknowledged" true
    (bye.Protocol.status = Protocol.Ok);
  Thread.join server_thread;
  Alcotest.(check bool) "front socket unlinked" false (Sys.file_exists front_path);
  List.iter
    (fun (_, d, th) ->
      Serve.Daemon.request_stop d;
      Thread.join th)
    workers;
  rm_rf dir

(* --- the race machine under random event orders --- *)

let race_reply ?status racer =
  let id =
    Some (match racer with Race.Primary -> "primary" | Race.Hedge -> "hedge")
  in
  match status with
  | Some `Busy -> Protocol.overloaded ~id ~retry_after_ms:5. "shed"
  | None -> Protocol.ok ~id (Json.Str "answer")

(* Drive one race: [picks] chooses, step by step, which pending event the
   environment delivers next and how an attempt ends; every few steps it
   also delivers an event that does not apply, which must change nothing. *)
let drive_race ~attempts ~second picks =
  let backoff =
    {
      Serve.Client.default_backoff with
      Serve.Client.attempts;
      base_delay_ms = 1.;
    }
  in
  let picks = ref picks in
  let pick n =
    match !picks with
    | [] -> 0
    | p :: rest ->
        picks := rest;
        p mod n
  in
  let state, actions = Race.start ~backoff ~second in
  let trace = ref [ (None, actions) ] in
  (* What the environment may deliver next: replies of racers on the wire,
     armed retry timers, the hedge timer. *)
  let wire = ref [] and timers = ref [] and hedge_timer = ref second in
  let apply actions =
    List.iter
      (function
        | Race.Send r -> wire := r :: !wire
        | Race.Arm_retry (r, _) -> timers := r :: !timers
        | Race.Abandon r ->
            wire := List.filter (( <> ) r) !wire;
            timers := List.filter (( <> ) r) !timers
        | _ -> ())
      actions
  in
  apply actions;
  let outcome racer =
    match pick 4 with
    | 0 -> Race.Answer (race_reply racer)
    | 1 -> Race.Backpressure (race_reply ~status:`Busy racer)
    | 2 -> Race.Transient
    | _ -> Race.Fatal (Failure "bad reply")
  in
  let spurious () =
    match pick 3 with
    | 0 -> Race.Retry_due (if pick 2 = 0 then Race.Primary else Race.Hedge)
    | 1 -> Race.Replied (Race.Hedge, Race.Transient)
    | _ -> Race.Hedge_due
  in
  let applies s = function
    | Race.Replied (r, _) -> List.mem r !wire && not (Race.decided s)
    | Race.Retry_due r -> List.mem r !timers && not (Race.decided s)
    | Race.Hedge_due -> !hedge_timer && not (Race.decided s)
  in
  let rec go s steps =
    let choices =
      List.map (fun r -> `Wire r) !wire
      @ List.map (fun r -> `Timer r) !timers
      @ if !hedge_timer then [ `Hedge ] else []
    in
    if choices = [] || steps > 200 then (s, true)
    else if !picks <> [] && pick 5 = 0 then begin
      (* An event that may not apply: if it does not, nothing happens. *)
      let ev = spurious () in
      if applies s ev then go s (steps + 1)
      else
        let s', acts = Race.step s ev in
        if acts <> [] || Race.decided s' <> Race.decided s then (s', false)
        else go s' (steps + 1)
    end
    else
      let ev =
        match List.nth choices (pick (List.length choices)) with
        | `Wire r ->
            wire := List.filter (( <> ) r) !wire;
            Race.Replied (r, outcome r)
        | `Timer r ->
            timers := List.filter (( <> ) r) !timers;
            Race.Retry_due r
        | `Hedge ->
            hedge_timer := false;
            Race.Hedge_due
      in
      let s, acts = Race.step s ev in
      trace := (Some ev, acts) :: !trace;
      apply acts;
      if Race.decided s then begin
        (* The environment keeps delivering after the verdict: ignored. *)
        wire := [];
        timers := [];
        hedge_timer := false
      end;
      go s (steps + 1)
  in
  let s, ignored_ok = go state 0 in
  (s, ignored_ok, List.rev !trace)

let is_send = function Race.Send _ -> true | _ -> false
let is_abandon = function Race.Abandon _ -> true | _ -> false
let is_decide = function Race.Decide _ -> true | _ -> false
let arms_retry r = function Race.Arm_retry (r', _) -> r' = r | _ -> false

(* The primary's backpressure ends its budget when no retry is armed. *)
let primary_pushed_back_last (ev, acts) =
  match ev with
  | Some (Race.Replied (Race.Primary, Race.Backpressure _)) ->
      not (List.exists (arms_retry Race.Primary) acts)
  | _ -> false

let prop_race_rules =
  QCheck2.Test.make ~name:"race: one verdict, rules hold under any event order"
    ~count:2000
    ~print:QCheck2.Print.(triple int bool (list int))
    QCheck2.Gen.(
      triple (int_range 1 3) bool
        (list_size (int_range 0 80) (int_range 0 1000)))
    (fun (attempts, second, picks) ->
      let s, ignored_ok, trace = drive_race ~attempts ~second picks in
      let actions = List.concat_map snd trace in
      let verdicts =
        List.filter_map (function Race.Decide v -> Some v | _ -> None) actions
      in
      (* Exactly one verdict, the last action of its step. *)
      let one_verdict =
        List.length verdicts = 1
        && List.for_all
             (fun (_, acts) ->
               match List.rev acts with
               | _ :: earlier -> not (List.exists is_decide earlier)
               | [] -> true)
             trace
      in
      (* The loser's connection is always closed: after the verdict no
         racer is left on the wire. *)
      let on_wire =
        List.fold_left
          (fun wire (ev, acts) ->
            let wire =
              match ev with
              | Some (Race.Replied (r, _)) -> List.filter (( <> ) r) wire
              | _ -> wire
            in
            List.fold_left
              (fun wire -> function
                | Race.Send r -> r :: wire
                | Race.Abandon r -> List.filter (( <> ) r) wire
                | _ -> wire)
              wire acts)
          [] trace
      in
      (* Nothing is sent once the primary's backpressure has ended it. *)
      let quiet_after_backpressure =
        let rec go ended = function
          | [] -> true
          | step :: rest ->
              let ended = ended || primary_pushed_back_last step in
              (not (ended && List.exists is_send (snd step))) && go ended rest
        in
        go false trace
      in
      (* The hedge timer adds no load once the primary has pushed back,
         even with attempts left: no [Hedged] after any primary
         backpressure (failover after a primary transient may still
         fire). *)
      let no_hedge_after_pushback =
        let rec go pushed = function
          | [] -> true
          | (ev, acts) :: rest ->
              (not (pushed && List.mem (Race.Count Race.Hedged) acts))
              &&
              let pushed =
                pushed
                ||
                match ev with
                | Some (Race.Replied (Race.Primary, Race.Backpressure _)) -> true
                | _ -> false
              in
              go pushed rest
        in
        go false trace
      in
      (* The hedge fires (on its timer or as failover) at most once. *)
      let fired =
        List.length
          (List.filter
             (function
               | Race.Count (Race.Hedged | Race.Failed_over) -> true
               | _ -> false)
             actions)
      in
      (* The first real answer wins. *)
      let first_answer_wins =
        match
          List.find_map
            (function
              | Some (Race.Replied (_, Race.Answer r)), _ -> Some r
              | _ -> None)
            trace
        with
        | None -> true
        | Some r -> (
            match verdicts with
            | [ Race.Relay v ] -> v.Protocol.reply_id = r.Protocol.reply_id
            | _ -> false)
      in
      (* Only an answer or the primary's own final backpressure or fatal
         error may cut a race short: anything from the hedge (backpressure
         included) decides only once no racer is left out, so it never
         beats a later answer from the primary. *)
      let cut_short_only_by_primary =
        List.for_all
          (fun ((ev, acts) as step) ->
            (not (List.exists is_decide acts && List.exists is_abandon acts))
            ||
            match ev with
            | Some (Race.Replied (_, Race.Answer _))
            | Some (Race.Replied (Race.Primary, Race.Fatal _)) ->
                true
            | _ -> primary_pushed_back_last step)
          trace
      in
      (* Events after the verdict change nothing. *)
      let late =
        [
          Race.Replied (Race.Primary, Race.Answer (race_reply Race.Primary));
          Race.Hedge_due;
          Race.Retry_due Race.Hedge;
        ]
      in
      ignored_ok && Race.decided s
      && List.for_all (fun ev -> snd (Race.step s ev) = []) late
      && one_verdict && on_wire = [] && quiet_after_backpressure
      && no_hedge_after_pushback
      && fired <= (if second then 1 else 0)
      && first_answer_wins && cut_short_only_by_primary)

(* --- bounded-load placement --- *)

(* One integer field of every worker in the router's stats, in worker
   order. *)
let placement router field =
  match Json.member "workers" (Serve.Router.stats_json router) with
  | Some (Json.Arr ws) ->
      List.map
        (fun w ->
          match Json.member field w with
          | Some (Json.Num x) -> int_of_float x
          | _ -> Alcotest.fail ("router stats carry " ^ field))
        ws
  | _ -> Alcotest.fail "router stats list the workers"

let check_drained what router =
  Alcotest.(check (list int))
    (what ^ ": no forward left in flight")
    (List.map (fun _ -> 0) (Serve.Router.workers router))
    (placement router "inflight")

(* Candidate lists of 1-6 distinct workers in some ring order, each worker
   with a count of forwards in flight. *)
let gen_placement =
  QCheck2.Gen.(
    int_range 1 6 >>= fun workers ->
    pair
      (array_size (return workers) (int_range 0 6))
      ( shuffle_l (List.init workers Fun.id) >>= fun ring ->
        int_range 1 workers >|= fun n -> List.filteri (fun i _ -> i < n) ring ))

let prop_place =
  QCheck2.Test.make ~name:"router: placement keeps every count under its cap"
    ~count:2000
    ~print:QCheck2.Print.(pair (array int) (list int))
    gen_placement
    (fun (inflight, candidates) ->
      let owner = List.hd candidates in
      let n = List.length candidates in
      let total = List.fold_left (fun s w -> s + inflight.(w)) 0 candidates in
      (* ceil ((total + 1) / n), spelled without the rule's own formula *)
      let cap = ref 0 in
      while !cap * n < total + 1 do incr cap done;
      let placed = Serve.Router.place ~inflight candidates in
      let chosen = List.hd placed in
      let rec before = function
        | w :: rest when w <> chosen -> w :: before rest
        | _ -> []
      in
      List.hd
        (Serve.Router.place ~inflight:(Array.make (Array.length inflight) 0)
           candidates)
      = owner
      && (inflight.(owner) >= !cap || chosen = owner)
      && inflight.(chosen) < !cap
      && List.for_all (fun w -> inflight.(w) >= !cap) (before candidates)
      && placed = chosen :: List.filter (fun w -> w <> chosen) candidates)

(* The hedge delay's order statistic against a sort, over windows filled
   the way the router fills its 256-sample ring: 0-600 samples, so about
   half the windows are full and have wrapped, with many ties. *)
let prop_p99_select =
  QCheck2.Test.make ~name:"router: p99 by selection equals the sorted p99"
    ~count:1000
    ~print:QCheck2.Print.(list float)
    QCheck2.Gen.(
      list_size (int_range 0 600)
        (frequency
           [
             (3, map float_of_int (int_range 0 4));
             (2, float_range 0. 50.);
             (1, oneofl [ 25.; 500.; 1e-3 ]);
           ]))
    (fun samples ->
      let window = Array.make 256 0. and n = ref 0 and next = ref 0 in
      List.iter
        (fun ms ->
          window.(!next) <- ms;
          next := (!next + 1) mod 256;
          if !n < 256 then incr n)
        samples;
      let sample = Array.sub window 0 !n in
      let before = Array.copy sample in
      let got = Serve.Router.p99 sample in
      let sorted = Array.copy sample in
      Array.sort Float.compare sorted;
      let want =
        if !n = 0 then Float.nan
        else
          sorted.(Int.min (!n - 1)
                    (int_of_float (0.99 *. float_of_int !n)))
      in
      Float.equal got want && sample = before)

(* With a job's owner pinned by a slow forward, a second job it owns goes
   to the other worker, which answers before the slow one returns and with
   the bytes the owner computes for it. *)
let test_router_spills_off_a_busy_owner () =
  let dir = temp_dir "symref-spill" in
  let mk name =
    let addr = Serve.Transport.Unix_sock (Filename.concat dir name) in
    let d = Serve.Daemon.create ~listen:[ addr ] () in
    (addr, d, Thread.create Serve.Daemon.serve d)
  in
  let a = mk "a.sock" and b = mk "b.sock" in
  let addr_of (addr, _, _) = addr and daemon_of (_, d, _) = d in
  let router = Serve.Router.create ~hedge:None [ addr_of a; addr_of b ] in
  let slow = job_owned_by router ~prefix:"pinned" 0 in
  let next = job_owned_by router ~prefix:"spilled" 0 in
  let slow_reply = Atomic.make None in
  let spilled, answered_early =
    (* [serve.slow_worker] fires once: the first submit to reach a daemon,
       the slow job on its owner, sleeps 800 ms before admission. *)
    with_fault Inject.serve_slow ~payload:800.
      (Inject.Times { skip = 0; count = 1 })
      (fun () ->
        let pinned =
          Thread.create
            (fun () ->
              Atomic.set slow_reply (Some (Serve.Router.forward router slow)))
            ()
        in
        let deadline = Unix.gettimeofday () +. 5. in
        while
          Inject.fired Inject.serve_slow = 0 && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.002
        done;
        let r = Serve.Router.forward router next in
        let early = Atomic.get slow_reply = None in
        Thread.join pinned;
        (r, early))
  in
  Alcotest.(check bool) "slow job ok" true
    (match Atomic.get slow_reply with
    | Some r -> r.Protocol.status = Protocol.Ok
    | None -> false);
  Alcotest.(check bool) "spilled job ok" true
    (spilled.Protocol.status = Protocol.Ok);
  Alcotest.(check bool) "answered before the slow job returned" true
    answered_early;
  let entries d = Cache.entries (Service.cache (Serve.Daemon.service d)) in
  Alcotest.(check int) "computed by the other worker" 1 (entries (daemon_of b));
  Alcotest.(check (list int)) "one forward spilled, onto worker 1" [ 0; 1 ]
    (placement router "spilled");
  check_drained "after the spill" router;
  let from_owner =
    Serve.Client.with_connection ~addr:(addr_of a) (fun c ->
        Serve.Client.request c (Protocol.Submit next))
  in
  Alcotest.(check bool) "the owner computes it itself" false
    from_owner.Protocol.cached;
  Alcotest.(check string) "spilled reply byte-identical to the owner's"
    (norm_reply from_owner) (norm_reply spilled);
  Serve.Router.close router;
  List.iter
    (fun (_, d, th) ->
      Serve.Daemon.request_stop d;
      Thread.join th)
    [ a; b ];
  rm_rf dir

(* Every way a forward ends gives its count back: no worker reachable,
   with and without hedging, and a hedge race the hedge wins.  Sequential
   forwards are never moved off their owner. *)
let test_router_counts_unwind () =
  let dir = temp_dir "symref-unwind" in
  let nobody i =
    Serve.Transport.Unix_sock (Filename.concat dir (Printf.sprintf "none%d.sock" i))
  in
  let zero = Some { Serve.Router.after_ms_min = 0.; after_ms_max = 0. } in
  List.iter
    (fun hedge ->
      let router = Serve.Router.create ~hedge [ nobody 0; nobody 1 ] in
      let r = Serve.Router.forward router (reference_job ~id:"down" (rc_text "down")) in
      Alcotest.(check (option string)) "no worker reachable" (Some "connection")
        (Protocol.error_kind r);
      check_drained "all workers down" router)
    [ None; zero ];
  let a = fake_worker ~delay:(fun n -> if n = 0 then 0.3 else 0.) dir "a.sock" in
  let b = fake_worker dir "b.sock" in
  let router = Serve.Router.create ~hedge:zero [ a.f_addr; b.f_addr ] in
  let raced = job_owned_by router ~prefix:"raced" 0 in
  check_echo "hedge wins" raced ~from:"b.sock" (Serve.Router.forward router raced);
  for i = 0 to 3 do
    let job = job_owned_by router ~prefix:(Printf.sprintf "seq%d-" i) (i mod 2) in
    ignore (Serve.Router.forward router job)
  done;
  check_drained "after a hedge race" router;
  Alcotest.(check (list int)) "sequential forwards stay on their owners"
    [ 0; 0 ] (placement router "spilled");
  Serve.Router.close router;
  a.f_stop ();
  b.f_stop ();
  rm_rf dir

(* Worker domains of one daemon that miss on the same job store the same
   key at once.  Each store must stage in a file of its own: with a shared
   staging name, one domain can truncate the file another is about to
   rename into place, and a reader then finds a truncated entry, a miss,
   after the entry was complete. *)
let test_disk_cache_concurrent_stores () =
  let dir = temp_dir "symref-disk-domains" in
  let dc = Serve.Disk_cache.create ~dir in
  let key = Digest.to_hex (Digest.string "same-job") in
  let payload = String.init 65536 (fun i -> Char.chr (97 + (i mod 26))) in
  let writing = Atomic.make 3 in
  (* Reads, once the payload has been found, that return anything else. *)
  let reader =
    Domain.spawn (fun () ->
        let found = ref false and lost = ref 0 in
        while Atomic.get writing > 0 do
          match Serve.Disk_cache.find dc ~key with
          | Some p when p = payload -> found := true
          | _ -> if !found then incr lost
        done;
        !lost)
  in
  let writers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              Serve.Disk_cache.store dc ~key payload
            done;
            Atomic.decr writing))
  in
  List.iter Domain.join writers;
  Alcotest.(check int) "reads that lost the complete entry" 0 (Domain.join reader);
  Alcotest.(check (option string)) "the entry holds the payload" (Some payload)
    (Serve.Disk_cache.find dc ~key);
  rm_rf dir

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "cache: LRU eviction under byte budget" `Quick
          test_cache_lru;
        Alcotest.test_case "cache: oversize, replace, clear" `Quick
          test_cache_oversize_and_replace;
        Alcotest.test_case "scheduler: bounded admission + backpressure" `Quick
          test_scheduler_backpressure;
        Alcotest.test_case "scheduler: FIFO queue, shed above it" `Quick
          test_scheduler_queue_and_shed;
        Alcotest.test_case "scheduler: deadline shed up front, evict in queue"
          `Quick test_scheduler_deadline_shed_and_evict;
        Alcotest.test_case "scheduler: job exception isolation" `Quick
          test_scheduler_exception_isolation;
        Alcotest.test_case "service: cache hit is bit-identical" `Quick
          test_service_cache_bit_identity;
        Alcotest.test_case "service: canonicalised cache key" `Quick
          test_service_formatting_invariance;
        Alcotest.test_case "service: timeout with concurrent success" `Quick
          test_service_timeout_and_isolation;
        Alcotest.test_case "service: parse failure is structured" `Quick
          test_service_error_isolation;
        Alcotest.test_case "batch: examples match single-shot runs" `Quick
          test_batch_examples_vs_single_shot;
        Alcotest.test_case "batch: broken netlist reported, sweep continues"
          `Quick test_batch_broken_netlist;
        Alcotest.test_case "daemon: socket round trip end to end" `Quick
          test_daemon_round_trip;
        Alcotest.test_case "transport: address parsing" `Quick
          test_transport_parse;
        Alcotest.test_case "disk cache: round trip, corruption is a miss"
          `Quick test_disk_cache_round_trip_and_corruption;
        Alcotest.test_case "disk cache: two-process sharing" `Quick
          test_disk_cache_two_process_sharing;
        Alcotest.test_case "disk cache: bit-identical replay after restart"
          `Quick test_disk_cache_restart_replay;
        Alcotest.test_case "daemon: Unix and TCP replies byte-identical"
          `Quick test_daemon_dual_transport_parity;
        Alcotest.test_case "client: protocol version mismatch refused" `Quick
          test_client_version_mismatch;
        Alcotest.test_case "client: compatible older protocol accepted" `Quick
          test_client_version_compat;
        Alcotest.test_case "router: deterministic ring and live failover"
          `Quick test_router_determinism_and_failover;
        Alcotest.test_case "router: probe jitter is pure and bounded" `Quick
          test_probe_jitter;
        Alcotest.test_case "router: breaker closed/open/half-open lifecycle"
          `Quick test_breaker_lifecycle;
        Alcotest.test_case "router: hedged replies byte-identical to unhedged"
          `Quick test_hedged_unhedged_identity;
        Alcotest.test_case "router: flapping worker, breakers + byte identity"
          `Quick test_worker_flapping_chaos;
        Alcotest.test_case "router: hedged race over fatal workers resolves"
          `Quick test_hedged_fatal_no_hang;
        Alcotest.test_case "router: untried candidate keeps its Open breaker"
          `Quick test_breaker_untried_candidate_stays_open;
        Alcotest.test_case "scheduler: sweeper evicts with all slots pinned"
          `Quick test_scheduler_sweeper_eviction;
        Alcotest.test_case "supervisor: crash budget restarts then gives up"
          `Quick test_supervisor_restart_and_giveup;
        Alcotest.test_case "supervisor: stop escalates and reaps" `Quick
          test_supervisor_stop_terminates;
        Alcotest.test_case "disk cache: orphaned staging files scrubbed"
          `Quick test_disk_cache_scrub;
        Alcotest.test_case "conns: finished handlers leave the live set"
          `Quick test_conns_drop_finished;
        Alcotest.test_case "router: one accept for 50 pooled forwards" `Quick
          test_pool_one_accept;
        Alcotest.test_case "router: pool survives a worker restart" `Quick
          test_pool_worker_restart;
        Alcotest.test_case "router: hedge loser's connection never pooled"
          `Quick test_hedge_loser_not_pooled;
        Alcotest.test_case "router: forwards past select's descriptor limit"
          `Quick test_router_past_select_limit;
        Alcotest.test_case "router: abandoned half-open probe handed back"
          `Quick test_abandoned_probe_released;
        QCheck_alcotest.to_alcotest prop_race_rules;
        Alcotest.test_case "service: queued job answered by its deadline"
          `Quick test_service_queued_deadline;
        Alcotest.test_case "scheduler: workers bounded to 1..64" `Quick
          test_scheduler_workers_bound;
        Alcotest.test_case "service: sigma outside 1..12 refused" `Quick
          test_service_sigma_refused;
        Alcotest.test_case "service: health probes run under the deadline"
          `Quick test_service_health_under_deadline;
        Alcotest.test_case "batch: a job evicted from the queue timed out"
          `Quick test_batch_evicted_is_timeout;
        Alcotest.test_case "router: front answers like its workers" `Quick
          test_router_front;
        Alcotest.test_case "service: values past the sixth digit key apart"
          `Quick test_service_exact_key;
        QCheck_alcotest.to_alcotest prop_place;
        QCheck_alcotest.to_alcotest prop_p99_select;
        Alcotest.test_case "router: a busy owner's next job goes elsewhere"
          `Quick test_router_spills_off_a_busy_owner;
        Alcotest.test_case "router: every forward path releases its count"
          `Quick test_router_counts_unwind;
        Alcotest.test_case "disk cache: domains storing one key keep it whole"
          `Quick test_disk_cache_concurrent_stores;
      ] );
  ]
