(** The serve daemon: a {!Service} behind a {!Front}, listening on any
    mix of Unix-domain and TCP endpoints ({!Transport.address}) — the
    NDJSON exchange is identical on both.

    The front answers [Hello] and [Shutdown]; the daemon answers [Stats]
    with {!Service.stats_json} and [Submit] with the job's reply, waited
    for on the connection's thread.  Concurrency comes from jobs running
    on the scheduler's worker domains and from multiple connections; the
    connection threads only do I/O and waiting — never numerics — so a
    slow job never blocks the accept loop.  A job evicted from the queue
    past its deadline gets an [overloaded] reply with a retry hint.

    Error isolation is total: a malformed line, an unknown op, or a failing
    job produces a structured error reply on that connection and nothing
    else; the daemon only exits through {!request_stop} or a [shutdown]
    request, and then gracefully — admission stops, in-flight jobs drain and
    their replies are flushed before the connections are torn down. *)

type t

val create :
  ?config:Service.config -> listen:Transport.address list -> unit -> t
(** Bind and listen on every address in [listen] (at least one), with the
    config's [backlog] and, for Unix sockets, [socket_mode]
    ({!Front.create}).  An existing file at a Unix socket path is removed
    first — starting a daemon on a live daemon's socket replaces it; a TCP
    listener sets [SO_REUSEADDR].
    @raise Unix.Unix_error when a socket cannot be bound,
    [Invalid_argument] when [listen] is empty or the config's [workers] is
    outside [0..64] (checked before anything is bound). *)

val service : t -> Service.t

val addresses : t -> Transport.address list
(** The addresses actually bound, in [listen] order — TCP port [0]
    resolved to the kernel-assigned ephemeral port (how tests discover
    their workers' ports). *)

val serve : t -> unit
(** Run the accept loop on the calling thread until a [shutdown] request
    arrives (or {!request_stop} is called from another thread), then drain
    and clean up: every listener is closed (Unix socket files unlinked) and
    every connection handler has finished before this returns. *)

val request_stop : t -> unit
(** Ask the accept loop to wind down; safe from any thread and from a
    signal handler. *)

val run :
  ?config:Service.config -> listen:Transport.address list -> unit -> unit
(** [create] + [serve]. *)
