(** The live connections of {!Front}'s accept loop: one handler thread
    per accepted socket, tracked only while it runs. *)

type t

val create : unit -> t

val spawn : t -> (Unix.file_descr -> unit) -> Unix.file_descr -> unit
(** [spawn t handle fd] registers [fd] and runs [handle fd] on a new
    thread.  When [handle] returns (or raises) the entry is dropped and
    [fd] closed, under the set's lock — [handle] must not close [fd]
    itself. *)

val live : t -> int
(** Handlers still running. *)

val shutdown : t -> unit
(** Shut down the receive side of every live connection, so each handler
    reads end-of-file once it has flushed its current reply, then block
    until every handler has exited. *)
