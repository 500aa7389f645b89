(** Span tracing for the reference pipeline, in Chrome [trace_event]
    format.

    {!start} a trace, run the workload, {!finish} to write the file; the
    result loads directly into [chrome://tracing] or
    {{:https://ui.perfetto.dev} Perfetto}.  Spans are complete ([ph = "X"])
    events stamped with the monotonic clock and tagged with the OCaml
    domain id as [tid], so jobs running on the serve scheduler's worker
    domains show up as parallel tracks.

    While no trace is active, {!span} runs its thunk directly — one boolean
    load and a branch of overhead — and {!instant} is a no-op.  The
    instrumented pipeline emits one span per adaptive pass
    ([adaptive.pass]), per interpolation batch ([interp.batch]), per
    factorisation class ([lu.factor] / [lu.symbolic]) and per batched
    replay ([lu.batch]); see [doc/observability.mld] for the full naming
    scheme. *)

val start : file:string -> unit
(** Begin buffering events; {!finish} will write them to [file].  Resets
    any previously buffered events. *)

val is_on : unit -> bool

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when tracing is active, records a complete
    event covering its execution (also on exception). *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a zero-duration marker. *)

val event_count : unit -> int
(** Events currently buffered. *)

val to_json : unit -> Json.t
(** The trace document that {!finish} would write (test hook). *)

val finish : unit -> unit
(** Stop tracing and write the file given to {!start} (if any).  Clears the
    buffer. *)
