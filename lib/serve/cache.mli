(** Content-addressed result cache: canonical job key → serialized reply
    payload, LRU-evicted under a byte budget.

    Keys come from {!Service.cache_key}: the MD5 of the {e canonicalised}
    netlist (parse → {!Symref_spice.Writer.canonical}, so formatting,
    comment and case differences hash alike, and every value is printed
    exactly) concatenated with the
    canonical analysis-parameter string.  Values are the compact JSON
    payload text, stored and replayed verbatim — a hit is bit-identical to
    the reply that populated it.

    Thread-safe (one mutex; operations are O(1) hash + list splicing).
    The gauges below are always on (the protocol's [stats] reply and the
    batch report read them); the {!Symref_obs.Metrics} serve counters
    ([serve.cache_hit] / [serve.cache_miss] / [serve.cache_eviction]) are
    bumped as well, and cost nothing while metrics are disabled. *)

type t

val create : ?max_bytes:int -> unit -> t
(** [max_bytes] (default 64 MiB) bounds [sum (|key| + |payload|)] over the
    live entries; an over-budget insertion evicts least-recently-used
    entries first.  A payload larger than the whole budget is not cached.
    [max_bytes <= 0] disables caching (every lookup misses). *)

val find : t -> key:string -> string option
(** [Some payload] refreshes the entry's recency and counts a hit;
    [None] counts a miss. *)

val add : t -> key:string -> string -> unit
(** Insert (or refresh) the payload for [key], then evict LRU entries
    until the budget holds. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val entries : t -> int
val bytes : t -> int

val clear : t -> unit
(** Drop every entry (gauges keep their values; no evictions counted). *)

val stats_json : t -> Symref_obs.Json.t
(** [{hits; misses; evictions; entries; bytes; max_bytes}] for the
    protocol's [stats] reply and the batch report. *)
