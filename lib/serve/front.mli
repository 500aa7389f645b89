(** Where a request enters the serve tier: the listeners, the accept loop
    and the NDJSON exchange that {!Daemon} and the {!Router}'s front
    server share.

    One {!Conns} thread per accepted connection.  It writes the hello
    banner, then answers one request per line, strictly in order: blank
    lines are skipped, a malformed line gets a [protocol] error reply and
    the connection keeps answering, [Hello] and [Shutdown] are answered
    here, [Stats] and [Submit] by the server's own functions.  Every line
    written, the banner first, passes the [serve.drop_connection] and
    [serve.partial_write] fault points ({!Symref_fault.Inject}). *)

type t

val create :
  ?backlog:int -> ?socket_mode:int -> Transport.address list -> t
(** Bind and listen on every address (at least one) with
    {!Transport.listen}'s [backlog] and [socket_mode].  [SIGPIPE] is set
    to ignore: a client hanging up mid-reply must not kill the process.
    On partial bind failure the already-bound sockets are closed again
    before the exception escapes.
    @raise Unix.Unix_error when a socket cannot be bound,
    [Invalid_argument] when the list is empty. *)

val addresses : t -> Transport.address list
(** The addresses actually bound, in [create] order, TCP port [0] resolved
    to the kernel-assigned port. *)

val serve :
  t ->
  stats:(unit -> Symref_obs.Json.t) ->
  submit:(Protocol.job -> Protocol.reply) ->
  unit
(** Accept connections on the calling thread until a [Shutdown] request
    or {!request_stop}.  [stats ()] is the body of an [ok] reply to
    [Stats]; [submit job] is the reply to [Submit job], computed on the
    connection's thread.  Returns with the listeners still bound and the
    connections still open, so the caller can drain its work first. *)

val request_stop : t -> unit
(** Ask {!serve} to return within 0.2 s.  An atomic store: safe from any
    thread and from a signal handler. *)

val stopping : t -> bool
(** Whether a stop was requested: a loop the server runs beside the front
    (the router's prober) ends on it. *)

val close : t -> unit
(** Close every listener (Unix socket files unlinked), then shut the
    receive side of every connection and wait for its handler to finish
    its current reply and exit. *)
