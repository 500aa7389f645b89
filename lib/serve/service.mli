(** Job execution: netlist → analysis → reply, through the result cache.

    One {!t} owns a {!Cache.t} and a {!Scheduler.t}; the daemon and the
    in-process batch sweep are both thin shells around it.  Everything a
    job can do wrong — unreadable file, parse error with its [file:line]
    diagnostic, circuit outside the nodal class, singular matrix, deadline
    exceeded — comes back as a structured {!Protocol.reply}; nothing
    escapes a worker. *)

type config = {
  workers : int;
      (** worker domains, and so jobs running at once; [0] = cores - 1
          (see {!Scheduler.resolve_workers}) *)
  queue : int;
      (** submissions waiting behind them; the excess is shed with a typed
          [Overloaded] reply carrying [retry_after_ms] *)
  cache_bytes : int;  (** result-cache byte budget *)
  default_timeout_ms : int option;
      (** applied to jobs that do not carry their own [timeout_ms] *)
  disk_cache_dir : string option;
      (** persistent {!Disk_cache} directory layered under the LRU; [None]
          keeps the cache purely in-memory *)
  backlog : int;  (** listen(2) backlog of the daemon's sockets *)
  socket_mode : int option;
      (** chmod mask applied to a Unix listening socket (e.g. [0o600]);
          [None] keeps the process umask's result *)
}

val default_config : config
(** 0 workers (auto), queue 64, 64 MiB cache, no default
    timeout, no disk cache, backlog 16, default socket permissions. *)

type t

val create : ?config:config -> unit -> t
(** Starts no domain and no thread: the scheduler spawns its workers with
    the first submitted job.
    @raise Invalid_argument when [workers] is outside [0..64]. *)

val config : t -> config

exception Deadline_exceeded
(** Raised by the cooperative check inside a job whose wall-clock budget —
    measured from {e admission}, so queueing time counts — has expired. *)

(** {1 Input/output resolution}

    Shared with the CLI so [symref coeffs] and a serve job interpret
    the same strings identically. *)

val parse_input : Symref_circuit.Netlist.t -> string -> Symref_mna.Nodal.input
(** CLI input syntax: an element name, [diff:P,M], [node:P], [current:P].
    @raise Errors.Error [Bad_spec] on unknown elements or malformed specs. *)

val parse_output : string -> Symref_mna.Nodal.output
(** [NODE] or [P,M].  @raise Errors.Error [Bad_spec] on malformed specs. *)

val resolve_io :
  Symref_circuit.Netlist.t ->
  input:string ->
  output:string option ->
  Symref_circuit.Netlist.t * Symref_mna.Nodal.input * Symref_mna.Nodal.output * string * string
(** [(circuit', input, output, input_desc, output_desc)].  [input = "auto"]
    detects the drive: a unique grounded voltage source; else a grounded
    [+x/-x] source pair, which is {e removed} and becomes the differential
    drive (the µA741 sample netlist pattern); else a node named [in]/[vin].
    [output = None] prefers a node named [out]/[vout]/[output], falling
    back to the last node the netlist introduced.  The descriptors are the
    canonical CLI spellings used in cache keys and reply payloads.
    @raise Errors.Error [Bad_spec] when nothing matches. *)

(** {1 Jobs} *)

val cache_key : canonical:string -> Protocol.job -> input_desc:string -> output_desc:string -> string
(** MD5 hex over the canonicalised netlist text and every
    value-relevant parameter (analysis, resolved input/output, sigma, r).
    Timeouts and ids are excluded: they do not change the answer. *)

val run_job : t -> ?deadline:float -> Protocol.job -> Protocol.reply
(** Execute synchronously on the calling thread (used by workers and by
    anyone who wants the service without the scheduler). *)

val submit : t -> Protocol.job -> [ `Ticket of Protocol.reply Scheduler.ticket | `Rejected of Protocol.reply ]
(** Admit through the bounded queue.  [`Rejected] carries the ready-made
    backpressure reply: [Overloaded] (with [retry_after_ms]) when admission
    control shed the job, [Busy] when the scheduler is shutting down.  The
    job's deadline starts now — queueing time counts against it, and a
    queued job whose deadline passes is evicted without running (its
    awaited reply is the same [Overloaded]). *)

val scheduler : t -> Scheduler.t
val cache : t -> Cache.t

val disk_cache : t -> Disk_cache.t option
(** The persistent layer, when [disk_cache_dir] was configured. *)

val stats_json : t -> Symref_obs.Json.t
(** [{version; cache; scheduler; counters}] — cache gauges are always
    live; the counter snapshot is whatever {!Symref_obs.Metrics} has
    collected (zeros while disabled). *)

val drain : t -> unit
(** Wait for every admitted job to finish. *)

val shutdown : t -> unit
(** Stop admitting, drain, join the scheduler's worker domains. *)
