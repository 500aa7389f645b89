(* Consistent-hash front router for a fleet of serve daemons.

   The ring holds [replicas] virtual nodes per worker (MD5 of
   "<addr>#<i>", first 8 bytes as an unsigned int64), sorted by hash.  A
   job's key hashes onto the ring and walks clockwise: the first virtual
   node's worker owns it, the following *distinct* workers are its failover
   order.  Adding or removing one worker therefore only remaps the keys
   that hashed onto its virtual nodes — the rest of the fleet keeps its
   (warm) share.

   Placement is bounded-load consistent hashing (Mirrokni, Thorup &
   Zadimoghaddam, arXiv:1608.01350) with a factor of 1: a forward goes to
   the first worker in its key's ring order whose forwards in flight are
   below ceil((in flight + 1) / candidates), counted over the candidates
   the breakers admit.  With nothing in flight that is always the owner;
   under concurrent load no worker takes a second job while another
   candidate has fewer, so two misses never queue on one worker while the
   other idles.  The count is per forward, held on its placed worker from
   placement to reply: a hedge or failover leg to another worker is not
   counted separately, an approximation that only ever over-states the
   placed worker's load.  A job moved off its owner misses the owner's
   memory cache: with a shared disk cache (every [symref fleet]) it is a
   disk hit, replayed byte for byte; without one it is recomputed, to the
   same bytes.

   The router holds no job state beyond those counts: it forwards one
   request, relays one reply.  Worker health is tracked by a per-worker
   circuit breaker (closed -> open on failures -> half-open probe ->
   closed), but the marks stay advisory: when every candidate's breaker
   refuses, the walk tries them all anyway — a stale "open" must degrade
   to a slow request, not an outage.

   Forwards, health probes and stats requests run over a small pool of
   open connections per worker, so a forward costs the worker neither an
   accept nor a banner.  A pooled connection is always idle: it goes back
   only once its reply line has been read in full, and a connection left
   with a request in flight (a hedge race's loser) or one that raised is
   closed instead — otherwise the next request on it would read the
   abandoned job's reply.

   Tail latency is covered by hedging: when the placed worker has not
   answered after a delay derived from recent forward latencies (p99,
   clamped), the same job is re-issued to the next ring candidate and the
   first reply wins.  Workers are deterministic and idempotent, so a
   duplicated job can only waste one worker's time, never change the
   answer.  The race runs on the calling thread: the pure {!Race} machine
   picks the reply, a select loop over the racers' sockets and timers
   carries out its actions. *)

module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

(* --- circuit breakers --- *)

type breaker_state =
  | Closed
  | Open of { until : float }
  | Half_open of { since : float }

type breaker_view = [ `Closed | `Open | `Half_open ]

type breaker_config = {
  threshold : int;  (* consecutive forward failures that open the breaker *)
  cooldown_ms : float;  (* first open interval; doubles per re-open *)
  max_cooldown_ms : float;
}

let default_breaker =
  { threshold = 3; cooldown_ms = 250.; max_cooldown_ms = 10_000. }

(* --- hedging --- *)

type hedge_config = { after_ms_min : float; after_ms_max : float }

let default_hedge = { after_ms_min = 25.; after_ms_max = 500. }

(* --- the race: which reply a forward relays --- *)

(* Pure: state x event -> state x actions, no sockets, clocks or threads.
   The select loop in {!exchange} feeds it what happened and carries out
   what it says; the rules themselves live only here. *)
module Race = struct
  type racer = Primary | Hedge

  type outcome =
    | Answer of Protocol.reply
    | Backpressure of Protocol.reply
    | Transient
    | Fatal of exn

  type event = Replied of racer * outcome | Hedge_due | Retry_due of racer

  type verdict = Relay of Protocol.reply | Failed of exn | Lost

  type count = Hedged | Hedge_won | Failed_over | Retried

  type action =
    | Send of racer
    | Arm_retry of racer * float
    | Abandon of racer
    | Healthy of racer
    | Unhealthy of racer
    | Count of count
    | Decide of verdict

  (* [Idle] until first sent (only the hedge waits), [Sending n] while
     attempt [n] is on the wire, [Backing_off n] while the timer before
     attempt [n] runs, [Done] once its final outcome is in. *)
  type phase = Idle | Sending of int | Backing_off of int | Done

  type t = {
    backoff : Client.backoff;
    second : bool;  (* a second candidate exists *)
    primary : phase;
    hedge : phase;
    answer : (Protocol.reply * racer) option;  (* first real answer *)
    backpressure : Protocol.reply option;
    fatal : exn option;
    primary_lost : bool;  (* the primary failed transiently *)
    pushed_back : bool;  (* the primary has answered backpressure *)
    decided : bool;
  }

  let start ~backoff ~second =
    ( {
        backoff;
        second;
        primary = Sending 0;
        hedge = Idle;
        answer = None;
        backpressure = None;
        fatal = None;
        primary_lost = false;
        pushed_back = false;
        decided = false;
      },
      [ Send Primary ] )

  let decided s = s.decided
  let phase s = function Primary -> s.primary | Hedge -> s.hedge

  let set s r p =
    match r with
    | Primary -> { s with primary = p }
    | Hedge -> { s with hedge = p }

  let in_flight s r =
    match phase s r with
    | Sending _ | Backing_off _ -> true
    | Idle | Done -> false

  let fire s why = ({ s with hedge = Sending 0 }, [ Count why; Send Hedge ])

  (* The first real answer wins; else backpressure (the primary's, or the
     hedge's as a fallback); else a fatal failure, deterministic in the
     job; else every racer failed transiently and the walk moves on.  A
     racer still out is abandoned: its connection may yet carry a reply,
     so it must be closed, never pooled. *)
  let decide s acts =
    let verdict, hedge_won =
      match (s.answer, s.backpressure, s.fatal) with
      | Some (reply, r), _, _ -> (Relay reply, r = Hedge && not s.primary_lost)
      | None, Some reply, _ -> (Relay reply, false)
      | None, None, Some e -> (Failed e, false)
      | None, None, None -> (Lost, false)
    in
    let abandon r = if in_flight s r then [ Abandon r ] else [] in
    ( { s with decided = true },
      acts @ abandon Primary @ abandon Hedge
      @ (if hedge_won then [ Count Hedge_won ] else [])
      @ [ Decide verdict ] )

  (* A racer's final outcome.  Backpressure or a fatal error from the
     primary ends the race — exactly the unhedged relay, and hedging must
     not duplicate load onto an overloaded fleet; from the hedge they are
     only fallbacks, since the primary may still answer.  A primary that
     failed outright hands the job to the second candidate at once: that
     is failover, not a hedge. *)
  let settle s r o acts =
    let s = set s r Done in
    let s =
      match o with
      | Answer reply when Option.is_none s.answer ->
          { s with answer = Some (reply, r) }
      | Backpressure reply when r = Primary || Option.is_none s.backpressure ->
          { s with backpressure = Some reply }
      | Fatal e when Option.is_none s.fatal -> { s with fatal = Some e }
      | Transient when r = Primary -> { s with primary_lost = true }
      | Answer _ | Backpressure _ | Fatal _ | Transient -> s
    in
    match (o, r) with
    | Answer _, _ | (Backpressure _ | Fatal _), Primary -> decide s acts
    | Transient, Primary when s.second && s.hedge = Idle ->
        let s, fired = fire s Failed_over in
        (s, acts @ fired)
    | _ ->
        if in_flight s Primary || in_flight s Hedge then (s, acts)
        else decide s acts

  (* One attempt came back.  Each racer keeps the router's attempt budget:
     backpressure or a transient failure with attempts left arms a retry
     timer (the server's [retry_after_ms] hint when it gave one), exactly
     as {!Client.retry_request} would sleep.  Backpressure from the primary,
     even with attempts left, also disarms the hedge timer for the rest of
     the race: a hedge sent while the primary's worker is overloaded would
     only add load. *)
  let attempt_done s r n o =
    let s =
      match (r, o) with
      | Primary, Backpressure _ -> { s with pushed_back = true }
      | _ -> s
    in
    let retry ~retry_after_ms =
      let ms = Client.delay_after s.backoff ~attempt:n ~retry_after_ms in
      (set s r (Backing_off (n + 1)), [ Count Retried; Arm_retry (r, ms) ])
    in
    let last = n + 1 >= s.backoff.Client.attempts in
    match o with
    | Backpressure reply when not last ->
        retry ~retry_after_ms:(Protocol.retry_after_ms reply)
    | Transient when not last -> retry ~retry_after_ms:None
    | Answer _ | Backpressure _ -> settle s r o [ Healthy r ]
    | Transient -> settle s r o [ Unhealthy r ]
    | Fatal _ -> settle s r o []

  let step s ev =
    if s.decided then (s, [])
    else
      match ev with
      | Hedge_due when s.second && s.hedge = Idle && not s.pushed_back -> fire s Hedged
      | Retry_due r -> (
          match phase s r with
          | Backing_off n -> (set s r (Sending n), [ Send r ])
          | Idle | Sending _ | Done -> (s, []))
      | Replied (r, o) -> (
          match phase s r with
          | Sending n -> attempt_done s r n o
          | Idle | Backing_off _ | Done -> (s, []))
      | Hedge_due -> (s, [])
end

type worker = {
  addr : Transport.address;
  mutable state : breaker_state;
  mutable failures : int;  (* consecutive failures while Closed *)
  mutable streak : int;  (* opens since the last close, paces re-probing *)
  mutable probes : int;  (* probes sent, salts the deterministic jitter *)
  mutable next_probe : float;  (* prober schedule, unix time *)
  mutable idle : Client.t list;  (* pooled connections, most recent first *)
}

let lat_window = 256

type t = {
  workers : worker array;
  ring : (int64 * int) array; (* (vnode hash, worker index), sorted *)
  replicas : int;
  backoff : Client.backoff;
  breaker : breaker_config;
  hedge : hedge_config option;
  lat : float array; (* ring buffer of forward latencies, ms *)
  mutable lat_n : int; (* samples recorded, saturates at lat_window *)
  mutable lat_i : int; (* next write slot *)
  inflight : int array; (* per worker: forwards placed and not yet answered *)
  spilled : int array; (* per worker: forwards placed off their key's owner *)
  lock : Mutex.t;
      (* guards breaker fields, pools, the latency buffer and the counts *)
}

(* A signal must never unwind the prober: an interrupted nap just ends
   early (the prober re-checks its clock). *)
let sleepf s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let hash64 s =
  let d = Digest.string s in
  let x = ref 0L in
  for i = 0 to 7 do
    x := Int64.logor (Int64.shift_left !x 8) (Int64.of_int (Char.code d.[i]))
  done;
  !x

(* Forwarding wants to fail over quickly, not sit out a full client retry
   schedule against a dead worker: two attempts, short delays. *)
let default_backoff =
  { Client.default_backoff with Client.attempts = 2; base_delay_ms = 10. }

let create ?(replicas = 64) ?(backoff = default_backoff)
    ?(breaker = default_breaker) ?(hedge = Some default_hedge) addrs =
  if addrs = [] then invalid_arg "Router.create: no workers";
  if replicas < 1 then invalid_arg "Router.create: replicas must be >= 1";
  if breaker.threshold < 1 then
    invalid_arg "Router.create: breaker threshold must be >= 1";
  (* A pooled connection whose worker has gone away must fail the write
     with EPIPE (a stale connection, re-sent fresh), not kill the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workers =
    Array.of_list
      (List.map
         (fun addr ->
           {
             addr;
             state = Closed;
             failures = 0;
             streak = 0;
             probes = 0;
             next_probe = 0.;
             idle = [];
           })
         addrs)
  in
  let ring =
    Array.init
      (Array.length workers * replicas)
      (fun i ->
        let w = i / replicas and r = i mod replicas in
        ( hash64
            (Printf.sprintf "%s#%d" (Transport.to_string workers.(w).addr) r),
          w ))
  in
  Array.sort
    (fun (a, wa) (b, wb) ->
      match Int64.unsigned_compare a b with 0 -> compare wa wb | c -> c)
    ring;
  {
    workers;
    ring;
    replicas;
    backoff;
    breaker;
    hedge;
    lat = Array.make lat_window 0.;
    lat_n = 0;
    lat_i = 0;
    inflight = Array.make (Array.length workers) 0;
    spilled = Array.make (Array.length workers) 0;
    lock = Mutex.create ();
  }

let workers t = Array.to_list (Array.map (fun w -> w.addr) t.workers)

(* The routing key is over the job's *spelling* (raw netlist text or path,
   analysis, io, sigma, r): cheap, deterministic, and identical requests
   always have the same owner — which is what makes each worker's LRU
   cache effective, since a forward goes to its owner unless the owner
   already holds its share of the forwards in flight ({!place}).  It
   intentionally does not canonicalise the netlist; only the worker a
   forward is placed on pays for parsing. *)
let job_key (job : Protocol.job) =
  let netlist =
    match job.Protocol.netlist with
    | `Text s -> "text\x00" ^ s
    | `Path p -> "path\x00" ^ p
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            netlist;
            Protocol.analysis_to_string job.Protocol.analysis;
            job.Protocol.input;
            (match job.Protocol.output with Some o -> o | None -> "");
            string_of_int job.Protocol.sigma;
            Printf.sprintf "%.17g" job.Protocol.r;
          ]))

(* First ring slot at or clockwise-after [h] (binary search, wrapping). *)
let ring_start t h =
  let n = Array.length t.ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.ring.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

(* Worker indices in ring order starting at the key's owner, each worker
   once: the failover sequence. *)
let route t key =
  let n = Array.length t.ring in
  let start = ring_start t (hash64 key) in
  let seen = Array.make (Array.length t.workers) false in
  let order = ref [] in
  for i = 0 to n - 1 do
    let _, w = t.ring.((start + i) mod n) in
    if not seen.(w) then begin
      seen.(w) <- true;
      order := w :: !order
    end
  done;
  List.rev !order

let owner t key =
  match route t key with
  | w :: _ -> t.workers.(w).addr
  | [] -> assert false (* create requires >= 1 worker *)

(* Bounded-load placement.  The cap (total + n) / n is
   ceil((total + 1) / n), so some candidate is always below it: were every
   count >= cap, total >= n * cap >= total + 1. *)
let place ~inflight candidates =
  let n = List.length candidates in
  if n = 0 then invalid_arg "Router.place: no candidates";
  let total = List.fold_left (fun s w -> s + inflight.(w)) 0 candidates in
  let cap = (total + n) / n in
  let chosen = List.find (fun w -> inflight.(w) < cap) candidates in
  chosen :: List.filter (fun w -> w <> chosen) candidates

(* --- breaker transitions (all under t.lock) --- *)

(* splitmix64 finalizer: a full-avalanche bijection, so consecutive probe
   counts give independent-looking jitter without any hidden state. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

(* Deterministic probe jitter in [0.8, 1.2): spelled by (worker, probe
   count) alone, so replays schedule identically while distinct workers
   never probe in lockstep. *)
let probe_jitter ~salt n =
  let h = mix64 (Int64.of_int ((salt * 1_000_003) + n)) in
  let u =
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
  in
  0.8 +. (0.4 *. u)

let cooldown_s t (w : worker) =
  Float.min t.breaker.max_cooldown_ms
    (t.breaker.cooldown_ms *. Float.pow 2. (float_of_int (Int.min w.streak 10)))
  /. 1000.

(* Under t.lock. *)
let close_idle (w : worker) =
  List.iter Client.close w.idle;
  w.idle <- []

(* A tripped breaker also drops the worker's idle connections: they point
   at a process that just failed. *)
let open_locked t (w : worker) now =
  close_idle w;
  w.state <- Open { until = now +. cooldown_s t w };
  w.streak <- w.streak + 1;
  w.failures <- 0;
  Metrics.incr Metrics.router_breaker_opens;
  Metrics.incr Metrics.router_dead_workers

let record_success t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      (match w.state with
      | Closed -> ()
      | Open _ | Half_open _ ->
          w.state <- Closed;
          Metrics.incr Metrics.router_breaker_closes);
      w.failures <- 0;
      w.streak <- 0)

(* A failed forward: below the threshold it only counts; at the threshold
   the breaker opens.  A failed half-open probe re-opens with a doubled
   cooldown (capped), which is what paces re-probing of a worker that
   stays down. *)
let record_failure t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Closed ->
          w.failures <- w.failures + 1;
          if w.failures >= t.breaker.threshold then open_locked t w now
      | Half_open _ -> open_locked t w now
      | Open _ -> ())

(* The dedicated prober is authoritative: a worker that cannot answer
   Hello is down now, whatever the forward count says. *)
let trip t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Open _ -> ()
      | Closed | Half_open _ -> open_locked t w now)

(* May this worker take a request right now?  Closed: yes.  Open past its
   cooldown: yes.  Half-open (a probe is already in flight) or still
   cooling: no.  Read-only on purpose: merely being listed as a candidate
   must not burn the single half-open probe slot — a walk that ends
   before reaching an expired-open worker leaves it Open, and the claim
   happens only when a request is actually sent ({!claim_half_open}). *)
let admits t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Closed -> true
      | Open { until } -> now >= until
      | Half_open _ -> false)

(* The moment an exchange actually goes out: an Open breaker past its
   cooldown flips to Half_open here and nowhere else, so this request is
   the single probe and an untried candidate never gets parked
   Half_open (which would refuse its traffic until the prober's grace).
   [true] when this request claimed the probe. *)
let claim_half_open t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      let now = Unix.gettimeofday () in
      match w.state with
      | Open { until } when now >= until ->
          w.state <- Half_open { since = now };
          Metrics.incr Metrics.router_breaker_half_opens;
          true
      | Closed | Open _ | Half_open _ -> false)

(* A probe cut off by the race verdict neither answered nor failed: the
   slot goes back (Open, cooldown already passed), so the next request
   through probes again instead of the breaker waiting out the prober's
   grace — or, with no prober running, staying half-open for good. *)
let release_half_open t wi =
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      match w.state with
      | Half_open _ -> w.state <- Open { until = Unix.gettimeofday () }
      | Closed | Open _ -> ())

let breaker_state t wi : breaker_view =
  Mutex.protect t.lock (fun () ->
      match t.workers.(wi).state with
      | Closed -> `Closed
      | Open _ -> `Open
      | Half_open _ -> `Half_open)

let breaker_label = function
  | `Closed -> "closed"
  | `Open -> "open"
  | `Half_open -> "half_open"

(* --- latency book-keeping and the hedge delay --- *)

let record_latency t ms =
  Mutex.protect t.lock (fun () ->
      t.lat.(t.lat_i) <- ms;
      t.lat_i <- (t.lat_i + 1) mod lat_window;
      if t.lat_n < lat_window then t.lat_n <- t.lat_n + 1)

(* The element of rank [k] (from 0) of [a] in ascending [Float.compare]
   order, by Hoare's selection (Wirth's "Find"): O(n) expected, where a
   sort is O(n log n).  Reorders [a].  After each partition everything in
   [lo, j] is <= the pivot, everything in [i, hi] is >= it, and anything
   strictly between j and i equals it. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while Float.compare a.(!i) pivot < 0 do incr i done;
      while Float.compare a.(!j) pivot > 0 do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else hi := !lo
  done;
  a.(k)

let p99 sample =
  let n = Array.length sample in
  if n = 0 then Float.nan
  else
    select (Array.copy sample)
      (Int.min (n - 1) (int_of_float (0.99 *. float_of_int n)))

(* The hedge delay: the p99 of recent forward latencies, clamped into
   [after_ms_min, after_ms_max].  With no samples yet the delay is the
   max — hedging starts conservative and tightens as the router learns
   the fleet's actual tail. *)
let hedge_delay_ms t =
  match t.hedge with
  | None -> infinity
  | Some h ->
      let sample = Mutex.protect t.lock (fun () -> Array.sub t.lat 0 t.lat_n) in
      if Array.length sample = 0 then h.after_ms_max
      else Float.max h.after_ms_min (Float.min h.after_ms_max (p99 sample))

(* --- the connection pool --- *)

(* Idle connections kept per worker: enough for the front's concurrent
   forwards to one worker, few enough that the handler threads they pin on
   the worker stay negligible. *)
let max_idle = 4

(* An idle socket that selects readable has been closed (or reset) by its
   peer: the worker restarted or died since the connection was pooled. *)
let peer_closed c =
  match Unix.select [ Client.fd c ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

(* A pooled connection when a live one is idle ([true]: reused), else a
   fresh one. *)
let checkout t wi =
  let w = t.workers.(wi) in
  let take () =
    Mutex.protect t.lock (fun () ->
        match w.idle with
        | c :: rest ->
            w.idle <- rest;
            Some c
        | [] -> None)
  in
  let rec go () =
    match take () with
    | Some c when peer_closed c ->
        Client.close c;
        go ()
    | Some c -> (c, true)
    | None -> (Client.connect ~addr:w.addr, false)
  in
  go ()

(* Only a connection whose reply has been read in full comes back here. *)
let checkin t wi c =
  let w = t.workers.(wi) in
  let kept =
    Mutex.protect t.lock (fun () ->
        if List.length w.idle >= max_idle then false
        else begin
          w.idle <- c :: w.idle;
          true
        end)
  in
  if not kept then Client.close c

let close t = Mutex.protect t.lock (fun () -> Array.iter close_idle t.workers)

(* --- one exchange: the race's IO shell --- *)

(* Transient failures are the connection-level ones a fresh attempt can
   outlive; anything else (a version mismatch, a malformed reply) is
   deterministic in the job.  The exception must stay a value either way:
   an escaped one would kill a connection handler without a reply. *)
let outcome_of_exn = function
  | Unix.Unix_error (e, _, _) when Client.transient_errno e -> Race.Transient
  | Errors.Error e when Errors.transient e -> Race.Transient
  | Sys_error _ -> Race.Transient
  | e -> Race.Fatal e

let outcome_of_reply (reply : Protocol.reply) =
  match reply.Protocol.status with
  | Protocol.Busy | Protocol.Overloaded -> Race.Backpressure reply
  | Protocol.Ok | Protocol.Error | Protocol.Timeout -> Race.Answer reply

(* One racer's IO: its worker, the connection its attempt is on ([true]
   when it came from the pool), when it was first sent, whether that send
   claimed the worker's half-open probe, and its pending retry timer. *)
type leg = {
  racer : Race.racer;
  wi : int;
  mutable conn : (Client.t * bool) option;
  mutable started : float;
  mutable probing : bool;
  mutable retry_at : float;
}

(* Run [req] against worker [w1] — raced against [second = Some (w2,
   delay_ms)] — on the calling thread: send the primary, select on its
   socket for the hedge delay, then on every racer's socket and retry
   timer, feeding {!Race} each event and carrying out its actions until it
   decides.  A reused connection that fails before a reply arrives was
   stale: the request goes out once more on a fresh connection, charged to
   neither the breaker nor the attempt budget. *)
let exchange t req w1 second =
  let leg racer wi =
    {
      racer;
      wi;
      conn = None;
      started = Float.nan;
      probing = false;
      retry_at = infinity;
    }
  in
  let primary = leg Race.Primary w1 in
  let hedge = Option.map (fun (w2, _) -> leg Race.Hedge w2) second in
  let legs = primary :: Option.to_list hedge in
  let leg_of = function
    | Race.Primary -> primary
    | Race.Hedge -> Option.get hedge
  in
  let hedge_at =
    ref
      (match second with
      | Some (_, ms) -> Unix.gettimeofday () +. (ms /. 1000.)
      | None -> infinity)
  in
  let events = Queue.create () in
  let verdict = ref None in
  let report l o = Queue.add (Race.Replied (l.racer, o)) events in
  let sample l =
    match req with
    | Protocol.Submit _ when not (Float.is_nan l.started) ->
        record_latency t ((Unix.gettimeofday () -. l.started) *. 1000.)
    | Protocol.Submit _ | Protocol.Hello | Protocol.Stats | Protocol.Shutdown ->
        ()
  in
  let rec transmit l ~reuse =
    match
      if reuse then checkout t l.wi
      else (Client.connect ~addr:t.workers.(l.wi).addr, false)
    with
    | exception e -> report l (outcome_of_exn e)
    | c, reused -> (
        match Client.send c req with
        | () -> l.conn <- Some (c, reused)
        | exception e ->
            Client.close c;
            failed l ~reused e)
  and failed l ~reused e =
    match outcome_of_exn e with
    | Race.Transient when reused -> transmit l ~reuse:false
    | o -> report l o
  in
  let receive l =
    match l.conn with
    | None -> ()
    | Some (c, reused) -> (
        l.conn <- None;
        match Client.recv c with
        | reply ->
            checkin t l.wi c;
            report l (outcome_of_reply reply)
        | exception e ->
            Client.close c;
            failed l ~reused e)
  in
  let drop l =
    Option.iter (fun (c, _) -> Client.close c) l.conn;
    l.conn <- None
  in
  let act = function
    | Race.Send r ->
        let l = leg_of r in
        if Float.is_nan l.started then begin
          l.started <- Unix.gettimeofday ();
          l.probing <- claim_half_open t l.wi
        end;
        if r = Race.Hedge then hedge_at := infinity;
        transmit l ~reuse:true
    | Race.Arm_retry (r, ms) ->
        (leg_of r).retry_at <- Unix.gettimeofday () +. (ms /. 1000.)
    | Race.Abandon r ->
        let l = leg_of r in
        drop l;
        l.retry_at <- infinity;
        if l.probing then release_half_open t l.wi;
        (* The loser's elapsed time is a floor on its latency: recording
           it keeps the slow tail in the p99 the hedge delay derives from. *)
        sample l
    | Race.Healthy r ->
        let l = leg_of r in
        record_success t l.wi;
        sample l
    | Race.Unhealthy r -> record_failure t (leg_of r).wi
    | Race.Count c ->
        Metrics.incr
          (match c with
          | Race.Hedged -> Metrics.router_hedges
          | Race.Hedge_won -> Metrics.router_hedge_wins
          | Race.Failed_over -> Metrics.router_failovers
          | Race.Retried -> Metrics.serve_client_retries)
    | Race.Decide v -> verdict := Some v
  in
  (* The next due timer as an event, else block in select until a socket
     or the earliest timer is ready. *)
  let wait () =
    let now = Unix.gettimeofday () in
    match List.find_opt (fun l -> l.retry_at <= now) legs with
    | Some l ->
        l.retry_at <- infinity;
        Queue.add (Race.Retry_due l.racer) events
    | None when !hedge_at <= now ->
        hedge_at := infinity;
        Queue.add Race.Hedge_due events
    | None -> (
        let out =
          List.filter_map
            (fun l -> Option.map (fun (c, _) -> (Client.fd c, l)) l.conn)
            legs
        in
        let deadline =
          List.fold_left (fun d l -> Float.min d l.retry_at) !hedge_at legs
        in
        let timeout = if deadline = infinity then -1. else deadline -. now in
        match Unix.select (List.map fst out) [] [] timeout with
        | ready, _, _ -> List.iter (fun fd -> receive (List.assoc fd out)) ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINVAL, _, _) when out <> [] ->
            (* A descriptor past select's FD_SETSIZE (a process with over a
               thousand open files): block on the first racer's reply
               alone, giving up the timers for this wait. *)
            receive (snd (List.hd out))
        | exception e ->
            List.iter
              (fun (_, l) ->
                drop l;
                report l (Race.Fatal e))
              out)
  in
  let rec run state =
    match Queue.take_opt events with
    | Some ev ->
        let state, actions = Race.step state ev in
        List.iter act actions;
        run state
    | None -> (
        match !verdict with
        | Some v -> v
        | None ->
            wait ();
            run state)
  in
  let state, actions = Race.start ~backoff:t.backoff ~second:(hedge <> None) in
  Fun.protect
    ~finally:(fun () -> List.iter drop legs)
    (fun () ->
      List.iter act actions;
      run state)

(* A non-transient exchange failure becomes the client's structured reply:
   it is deterministic in the job (every worker would say the same), so
   relaying it is as correct as a worker saying it — and the connection
   handler never has to survive an exception. *)
let fatal_reply (job : Protocol.job) e =
  let kind, msg =
    match e with
    | Errors.Error err -> (Errors.kind err, Errors.message err)
    | Failure m -> ("protocol", m)
    | e -> ("internal", Printexc.to_string e)
  in
  Protocol.error ~id:job.Protocol.id ~kind msg

let no_worker_reply (job : Protocol.job) =
  (* Every candidate failed: a structured error, so one dead fleet never
     crashes the router's connection handler. *)
  Protocol.error ~id:job.Protocol.id ~kind:"connection"
    "router: no worker reachable for this job"

let forward t (job : Protocol.job) =
  Metrics.incr Metrics.router_requests;
  let order = route t (job_key job) in
  let admitted =
    match List.filter (admits t) order with [] -> order | live -> live
  in
  (* Placed and counted under one lock, so concurrent forwards see each
     other's counts; the count is released exactly once, however the
     forward ends. *)
  let candidates =
    Mutex.protect t.lock (fun () ->
        let candidates = place ~inflight:t.inflight admitted in
        let w = List.hd candidates in
        t.inflight.(w) <- t.inflight.(w) + 1;
        if w <> List.hd order then t.spilled.(w) <- t.spilled.(w) + 1;
        candidates)
  in
  let w = List.hd candidates in
  Fun.protect ~finally:(fun () ->
      Mutex.protect t.lock (fun () -> t.inflight.(w) <- t.inflight.(w) - 1))
  @@ fun () ->
  let req = Protocol.Submit job in
  (* Non-transient failures end the walk: the next worker would only say
     the same thing, so answer now instead of walking (and misreporting a
     deterministic failure as "no worker reachable"). *)
  let relay walk rest = function
    | Race.Relay reply -> reply
    | Race.Failed e -> fatal_reply job e
    | Race.Lost -> walk false rest
  in
  let rec walk first = function
    | [] -> no_worker_reply job
    | w :: rest ->
        if not first then Metrics.incr Metrics.router_failovers;
        relay walk rest (exchange t req w None)
  in
  match (t.hedge, candidates) with
  | Some _, w1 :: w2 :: rest ->
      relay walk rest (exchange t req w1 (Some (w2, hedge_delay_ms t)))
  | _, _ -> walk true candidates

(* --- health probing --- *)

(* One Hello probe, authoritative either way: success closes the breaker,
   failure trips it open on the spot. *)
let probe t wi =
  Metrics.incr Metrics.router_health_checks;
  Mutex.protect t.lock (fun () ->
      let w = t.workers.(wi) in
      w.probes <- w.probes + 1);
  match exchange t Protocol.Hello wi None with
  | Race.Relay _ -> ()
  | Race.Failed _ | Race.Lost -> trip t wi

let health_check t = Array.iteri (fun wi _ -> probe t wi) t.workers

(* The paced prober: closed workers re-probe every interval, open workers
   only once their (exponentially growing) cooldown has passed — a worker
   that stays down costs ever fewer probes, one that comes back is noticed
   within its current cooldown.  Jitter keeps a fleet of routers from
   probing in lockstep while staying a pure function of (worker, probe
   count). *)
let probe_due ?now ~interval_ms t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Array.iteri
    (fun wi _ ->
      let due, salt, probes =
        Mutex.protect t.lock (fun () ->
            let w = t.workers.(wi) in
            let ready =
              now >= w.next_probe
              &&
              match w.state with
              | Closed -> true
              | Open { until } -> now >= until
              | Half_open { since } ->
                  (* A half-open probe that never reported back (its
                     thread died mid-flight) must not wedge the breaker:
                     after a cooldown's grace the prober takes over. *)
                  now >= since +. cooldown_s t w
            in
            (ready, wi, w.probes))
      in
      if due then begin
        Mutex.protect t.lock (fun () ->
            t.workers.(wi).next_probe <-
              now
              +. float_of_int interval_ms /. 1000. *. probe_jitter ~salt probes);
        probe t wi
      end)
    t.workers

let stats_json t =
  let per_worker =
    Array.to_list
      (Array.mapi
         (fun w (worker : worker) ->
           let view = breaker_state t w in
           let failures, streak, inflight, spilled =
             Mutex.protect t.lock (fun () ->
                 ( t.workers.(w).failures,
                   t.workers.(w).streak,
                   t.inflight.(w),
                   t.spilled.(w) ))
           in
           let base =
             [
               ("addr", Json.Str (Transport.to_string worker.addr));
               ("alive", Json.Bool (view = `Closed));
               ("breaker", Json.Str (breaker_label view));
               ("failures", Json.Num (float_of_int failures));
               ("opens_streak", Json.Num (float_of_int streak));
               ("inflight", Json.Num (float_of_int inflight));
               ("spilled", Json.Num (float_of_int spilled));
             ]
           in
           match exchange t Protocol.Stats w None with
           | Race.Relay reply when reply.Protocol.status = Protocol.Ok ->
               Json.Obj (base @ [ ("stats", reply.Protocol.body) ])
           | Race.Relay _ | Race.Failed _ | Race.Lost -> Json.Obj base)
         t.workers)
  in
  Json.Obj
    [
      ("version", Json.Str Version.version);
      ("role", Json.Str "router");
      ("replicas", Json.Num (float_of_int t.replicas));
      ("hedging", Json.Bool (t.hedge <> None));
      ( "hedge_delay_ms",
        match t.hedge with
        | None -> Json.Null
        | Some _ -> Json.Num (hedge_delay_ms t) );
      ("workers", Json.Arr per_worker);
    ]

(* --- the front-end server: the router behind a {!Front} --- *)

type server = { router : t; front : Front.t; health_interval_ms : int }

let create_server ?backlog ?(health_interval_ms = 1000) ~listen router =
  { router; front = Front.create ?backlog listen; health_interval_ms }

let server_addresses s = Front.addresses s.front
let request_stop s = Front.request_stop s.front

let serve s =
  (* Health probing on its own thread, so a slow worker never delays
     accepts; the 0.2 s tick only *considers* probing — [probe_due] sends
     a Hello when a worker's own schedule (interval for closed breakers,
     backed-off cooldown for open ones) says it is time. *)
  let prober =
    Thread.create
      (fun () ->
        while not (Front.stopping s.front) do
          probe_due ~interval_ms:s.health_interval_ms s.router;
          sleepf 0.2
        done)
      ()
  in
  Front.serve s.front
    ~stats:(fun () -> stats_json s.router)
    ~submit:(forward s.router);
  Front.close s.front;
  Thread.join prober;
  close s.router
