(** Consistent-hash front router: one address for a fleet of serve
    daemons ([symref router], and the front half of [symref fleet]).

    Jobs hash by their request {e spelling} (netlist text or path,
    analysis, io, sigma, r) onto a virtual-node ring — identical requests
    always reach the same worker, keeping each worker's result cache
    effective, and resizing the fleet only remaps the keys whose virtual
    nodes moved.

    {b Circuit breakers.}  Each worker carries a breaker: [`Closed]
    (healthy) opens after [threshold] consecutive forward failures — or
    immediately when the background prober's Hello goes unanswered — and
    an open breaker refuses traffic for a cooldown that doubles on every
    re-open (capped).  Once the cooldown passes, the first request (or
    probe) through becomes the single {e half-open} trial: success closes
    the breaker, failure re-opens it for longer.  The marks stay
    advisory: when every candidate's breaker refuses, {!forward} tries
    them all anyway, so a stale mark degrades to latency, never an
    outage.  Transitions count in [router.breaker_open] /
    [router.breaker_half_open] / [router.breaker_close].

    {b Hedged requests.}  When the key's owner has not answered after a
    delay derived from recent forward latencies (their p99, clamped into
    [[after_ms_min, after_ms_max]]), the job is re-issued to the next
    ring candidate and the first real answer wins.
    The race runs on the forwarding thread itself: the primary goes out,
    the thread selects on its socket for the hedge delay, then on both
    sockets and any racer's retry timer.  The loser is abandoned — its
    connection closed — and its elapsed time still enters the latency
    window, so the slow tail stays in the p99.  Final backpressure
    or a fatal error from the owner ends the race, and once the owner has
    answered backpressure at all — even with attempts left — the hedge
    timer sends nothing; backpressure from the hedge is only a fallback.  A transient failure of the owner fires the second
    candidate at once, counted as failover, not as a hedge.  The rules
    live in the pure {!Race} machine.  Workers are deterministic and
    idempotent, so a duplicated job can only waste time, never change
    bytes.  Hedges and hedge wins count in [router.hedges] /
    [router.hedge_wins].

    {b Connection pool.}  Forwards, health probes and [Stats] requests
    reuse up to a fixed number of idle connections per worker, so a
    forward costs the worker no accept and no banner.  A pooled
    connection never has a request in flight: it returns to the pool only
    after its reply line has been read in full, and an abandoned or
    failed connection is closed.  An idle connection the worker closed
    (it restarted) is noticed before reuse and dropped; a reused
    connection that fails before a reply arrives is re-sent once on a
    fresh connection, charged to neither the breaker nor the attempt
    budget.  A tripped breaker closes that worker's idle connections.

    The router holds no job state and never parses a netlist: it relays
    each reply as the worker sent it (decoded and re-encoded, which
    preserves every byte of the payload), so an answer through the router
    is identical to one straight from the worker. *)

type t

type breaker_view = [ `Closed | `Open | `Half_open ]

type breaker_config = {
  threshold : int;
      (** Consecutive forward failures that open a closed breaker. *)
  cooldown_ms : float;
      (** First open interval; doubles on every re-open without an
          intervening close. *)
  max_cooldown_ms : float;  (** Cap on the doubled cooldown. *)
}

val default_breaker : breaker_config
(** [{threshold = 3; cooldown_ms = 250.; max_cooldown_ms = 10_000.}] *)

type hedge_config = {
  after_ms_min : float;  (** Floor on the hedge delay. *)
  after_ms_max : float;
      (** Ceiling on the hedge delay; also the delay used before any
          latency samples exist. *)
}
(** Bounds on the hedge delay, the p99 of recent forward latencies. *)

val default_hedge : hedge_config
(** [{after_ms_min = 25.; after_ms_max = 500.}] *)

val create :
  ?replicas:int ->
  ?backoff:Client.backoff ->
  ?breaker:breaker_config ->
  ?hedge:hedge_config option ->
  Transport.address list ->
  t
(** [create addrs] builds the ring with [replicas] (default 64) virtual
    nodes per worker.  [backoff] shapes each forwarding attempt (default:
    2 attempts, 10 ms base — fail over fast rather than out-wait a dead
    worker).  [breaker] tunes the per-worker circuit breakers; [hedge]
    configures request hedging (default {!default_hedge}; pass [None] to
    disable).  @raise Invalid_argument on an empty worker list,
    [replicas < 1] or [threshold < 1]. *)

val workers : t -> Transport.address list

val job_key : Protocol.job -> string
(** The routing key: MD5 hex over the job's value-relevant spelling.
    Deterministic and cheap — no parsing, no canonicalisation. *)

val owner : t -> string -> Transport.address
(** The worker a key hashes to (ignoring health). *)

val route : t -> string -> int list
(** Worker indices in ring walk order from the key's owner, each distinct
    worker once — the failover sequence [forward] follows. *)

val forward : t -> Protocol.job -> Protocol.reply
(** Submit through the ring: the owner first (hedged against the next
    candidate when hedging is on), then failover.  Transient failures
    (connection refused/reset/dropped, no banner) feed the worker's
    breaker and move on; non-transient failures (version mismatch, bad
    spec, malformed reply) are deterministic in the job and end the walk
    with a structured reply of the matching kind — [forward] never
    raises.  When no worker is reachable the reply is a structured
    [connection] error. *)

val close : t -> unit
(** Close every pooled idle connection.  The router stays usable: later
    forwards open fresh connections.  {!serve} calls this on its way
    out. *)

val breaker_state : t -> int -> breaker_view
(** The breaker of worker index [w] (as listed by {!workers}), now. *)

val hedge_delay_ms : t -> float
(** The delay {!forward} would hedge after right now: the p99 of recent
    forward latencies, clamped — or [infinity] when hedging is
    disabled. *)

val health_check : t -> unit
(** Probe every worker with Hello once, unconditionally.  The prober is
    authoritative: success closes the breaker, failure trips it open on
    the spot ([router.health_checks] / [router.dead_workers]). *)

val probe_due : ?now:float -> interval_ms:int -> t -> unit
(** Probe only the workers whose schedule says it is time: closed
    breakers every [interval_ms], open breakers once their (exponentially
    backed-off) cooldown passes, each stretched by {!probe_jitter}.  The
    background prober {!serve} runs calls this a few times a second. *)

val probe_jitter : salt:int -> int -> float
(** [probe_jitter ~salt n] is a deterministic stretch factor in
    [[0.8, 1.2)] for probe [n] of worker [salt] — a pure function, so a
    replayed schedule is identical while distinct workers never probe in
    lockstep. *)

val stats_json : t -> Symref_obs.Json.t
(** Fleet-wide stats: ring and hedge parameters plus, per worker, its
    address, breaker state (and the derived [alive] flag: breaker
    closed), consecutive-failure count and — when reachable — its own
    stats reply. *)

(** {1 The hedge race}

    The rules that pick a forward's reply, as a pure function of
    (state, event): no sockets, clocks or threads.  {!forward} runs one
    race per exchange ([second = false] for a single candidate) and
    carries out the actions it returns in order. *)
module Race : sig
  type racer = Primary | Hedge

  type outcome =
    | Answer of Protocol.reply  (** any reply but backpressure *)
    | Backpressure of Protocol.reply  (** [Busy] or [Overloaded] *)
    | Transient  (** a connection-level failure a retry may outlive *)
    | Fatal of exn  (** deterministic in the job *)

  type event =
    | Replied of racer * outcome  (** the racer's current attempt ended *)
    | Hedge_due  (** the hedge delay passed *)
    | Retry_due of racer  (** the racer's retry timer ran out *)

  type verdict =
    | Relay of Protocol.reply  (** answer the client with this reply *)
    | Failed of exn  (** answer with the matching structured error *)
    | Lost  (** every racer failed transiently: walk on *)

  type count =
    | Hedged  (** [router.hedges] *)
    | Hedge_won  (** [router.hedge_wins] *)
    | Failed_over  (** [router.failovers] *)
    | Retried  (** [serve.client_retries] *)

  type action =
    | Send of racer  (** put the request on a connection to its worker *)
    | Arm_retry of racer * float
        (** deliver [Retry_due racer] after this many ms *)
    | Abandon of racer
        (** close the racer's connection, never pool it; record its
            elapsed time as a latency sample; hand back the worker's
            half-open probe if this racer's send claimed it *)
    | Healthy of racer  (** breaker success (and latency sample) *)
    | Unhealthy of racer  (** breaker failure *)
    | Count of count
    | Decide of verdict  (** emitted exactly once, last *)

  type t

  val start : backoff:Client.backoff -> second:bool -> t * action list
  (** A race whose primary goes out now; [second] says whether a second
      candidate exists (for the hedge or for failover).  Each racer may
      make [backoff.attempts] attempts, retrying backpressure and
      transient failures after {!Client.delay_after}. *)

  val step : t -> event -> t * action list
  (** Events that do not apply (a reply from a racer not on the wire, a
      timer that is no longer armed, anything after the verdict) change
      nothing and return no action. *)

  val decided : t -> bool
end

(** {1 Front-end server}

    The router behind a {!Front}, which makes it a drop-in daemon: same
    NDJSON protocol, same banner, [Submit] forwarded to the fleet, [Stats]
    answered with {!stats_json}, [Shutdown] stopping the router (workers
    are administered separately). *)

type server

val create_server :
  ?backlog:int ->
  ?health_interval_ms:int ->
  listen:Transport.address list ->
  t ->
  server
(** Bind the front listeners ({!Front.create}; default backlog 16).
    [health_interval_ms] (default 1000) paces the background prober
    {!serve} runs.
    @raise Unix.Unix_error when binding fails, [Invalid_argument] when
    [listen] is empty. *)

val server_addresses : server -> Transport.address list
(** Bound addresses, ephemeral TCP ports resolved. *)

val serve : server -> unit
(** Run the accept loop and the health prober until a [shutdown] request
    or {!request_stop}; listeners are closed, every connection handler has
    finished and the worker connection pool is closed before this
    returns. *)

val request_stop : server -> unit
(** Ask {!serve} to wind down; safe from any thread and from a signal
    handler. *)
