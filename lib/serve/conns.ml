(* The live connections of an accept loop.  A connection is registered
   before its handler thread starts and deregistered — its socket closed
   under the same lock — as the handler exits, so the set only ever holds
   open sockets: shutdown can never touch a descriptor number that a later
   open has reused, and a long-running server holds no entry per finished
   connection. *)

type t = {
  lock : Mutex.t;
  drained : Condition.t;
  live : (int, Unix.file_descr) Hashtbl.t;
  mutable next : int;
}

let create () =
  {
    lock = Mutex.create ();
    drained = Condition.create ();
    live = Hashtbl.create 16;
    next = 0;
  }

let release t id fd =
  Mutex.protect t.lock (fun () ->
      Hashtbl.remove t.live id;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Hashtbl.length t.live = 0 then Condition.broadcast t.drained)

let spawn t handle fd =
  let id =
    Mutex.protect t.lock (fun () ->
        let id = t.next in
        t.next <- id + 1;
        Hashtbl.replace t.live id fd;
        id)
  in
  let run () =
    Fun.protect ~finally:(fun () -> release t id fd) (fun () -> handle fd)
  in
  match Thread.create run () with
  | _ -> ()
  | exception e ->
      release t id fd;
      raise e

let live t = Mutex.protect t.lock (fun () -> Hashtbl.length t.live)

let shutdown t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.live;
      while Hashtbl.length t.live > 0 do
        Condition.wait t.drained t.lock
      done)
