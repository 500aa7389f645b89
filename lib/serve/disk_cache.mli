(** Persistent content-addressed result cache: one file per entry under a
    shared directory, layered {e under} the in-memory {!Cache} by
    {!Service} so a hit replays bit-identically after a full daemon
    restart.

    Entry format (see [doc/serve.mld]): a checksum header line
    [symref-cache 2 <md5-hex-of-payload> <length>] followed by the raw
    payload bytes.  Writes stage into a temp file and [rename] into place
    (atomic within the directory), reads verify magic, length and digest
    and report any mismatch as a miss — so N daemon processes can share
    the directory read-mostly with no coordination, and a crash mid-write
    can never poison a reader.  Keys are the MD5-hex digests {!Service}
    already computes, which makes them filename-safe; anything else is
    rejected as invalid and behaves as a permanent miss.

    Hits, misses, writes and checksum rejections count in the
    [serve.disk_cache_*] metrics. *)

type t

val create : dir:string -> t
(** Create (mkdir -p) the cache directory if needed, then scrub orphaned
    [.tmp.*] staging files left by writers that crashed between staging
    and rename (counted in [serve.disk_cache_scrubbed]).  A concurrent
    writer's in-flight staging file may be scrubbed too — it then loses
    its rename race, which [store] already tolerates (the write is
    dropped, costing one future recompute).
    @raise Unix.Unix_error when the directory cannot be created. *)

val dir : t -> string

val find : t -> key:string -> string option
(** Look a payload up by key.  [None] on absent, truncated, corrupt or
    foreign files — never raises on entry content. *)

val store : t -> key:string -> string -> unit
(** Persist a payload atomically (tmp + rename).  I/O failures — a full
    or read-only disk — are swallowed: the disk layer is an accelerator,
    losing a write only costs a future recompute. *)

val entries : t -> int
(** Number of (well-named) entry files currently in the directory. *)

val bytes : t -> int
(** Total size of those entry files, headers included. *)

val stats_json : t -> Symref_obs.Json.t
(** [{dir; entries; bytes}] — directory-scan gauges, cheap at cache
    scales. *)
