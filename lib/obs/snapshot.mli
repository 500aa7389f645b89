(** A frozen copy of every {!Metrics} counter and histogram, in
    registration order.

    The benchmark embeds one in [BENCH_interp.json], the CLI prints one
    under [--stats], serve [stats] replies carry one, and the tests read
    it through {!value}.  JSON field names are exactly the {!Metrics}
    registry names, in registration order, and
    [of_string (to_string t) = t].  A counter declared in {!Metrics}
    appears here with no further edit. *)

type t

val capture : unit -> t
(** Read every registered counter and histogram now. *)

val value : t -> Metrics.counter -> int
(** The counter's value when the snapshot was taken. *)

val buckets : t -> Metrics.histogram -> (int * int) list
(** [(bucket upper bound, count)] for every non-empty bucket, ascending. *)

val is_zero : t -> bool
(** Every counter is zero and every histogram empty. *)

val factorizations : t -> int
(** [lu.refactor + lu.factor]: numeric factorisations actually performed —
    the paper's cost metric as seen by the matrix layer. *)

val to_json : t -> Json.t
val to_string : t -> string

val of_json : Json.t -> t
(** @raise Failure when a registered counter or histogram is missing or
    ill-typed. *)

val of_string : string -> t
(** @raise Failure on malformed input. *)

val to_table : t -> string
(** Human-readable counter table (the [--stats] output). *)
