(** In-process batch sweep: run one analysis over every netlist in a
    directory, through the same {!Service} (scheduler + cache) the daemon
    uses, without a socket.

    Files are processed in sorted-name order and the report lists them in
    that order, so a batch over an unchanged directory is deterministic and
    each per-file payload is bit-identical to a single-shot run of the same
    job.  A file that fails — unreadable, malformed (the reply carries the
    parser's [file:line: message] one-liner), outside the nodal class, timed
    out — becomes an error entry in the report and never stops the sweep. *)

type outcome = {
  file : string;  (** path as submitted (directory-joined) *)
  reply : Protocol.reply;
}

type report = {
  directory : string;
  files : int;
  succeeded : int;
  failed : int;  (** error outcomes, timeouts included *)
  timed_out : int;
  cached : int;  (** outcomes answered from the result cache *)
  outcomes : outcome list;  (** sorted-name order *)
  cache_stats : Symref_obs.Json.t;
}

val netlist_files : string -> string list
(** Sorted netlist files ([.sp], [.cir], [.net], [.spi], [.ckt]) directly in
    the directory.  @raise Sys_error when the directory cannot be read. *)

val run :
  ?config:Service.config -> ?template:Protocol.job -> string -> report
(** [run dir] sweeps [netlist_files dir], submitting each as [template]
    (default {!Protocol.default_job}: reference analysis, auto input/output)
    with its [netlist] replaced by the file's path and its [id] by the same
    path.  Jobs flow through the bounded scheduler with backpressure —
    submission waits for a slot instead of rejecting.  A job whose
    deadline passes while it is queued gets a [timeout] reply, counted in
    [timed_out].  The service is drained and shut down before the report
    is returned. *)

val report_to_json : report -> Symref_obs.Json.t
(** [{directory; files; succeeded; failed; timed_out; cached; cache;
    results: [{file; reply}...]}] — the aggregate document [symref batch]
    prints. *)
