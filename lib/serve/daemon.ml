(* Accept loop + per-connection threads for the serve daemon. *)

module Json = Symref_obs.Json
module Inject = Symref_fault.Inject

type t = {
  service : Service.t;
  listeners : (Transport.address * Unix.file_descr) list;
  lock : Mutex.t;
  mutable stop : bool;
  conns : Conns.t;
}

let create ?config ~listen () =
  if listen = [] then invalid_arg "Daemon.create: no listen addresses";
  (* A client that disconnects while a reply is in flight must surface as a
     write error on that connection, not kill the whole daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let service = Service.create ?config () in
  let cfg = Service.config service in
  let listeners =
    (* Bind them all before serving anything; unwind on partial failure so
       a clashing port doesn't leak the sockets that did bind. *)
    let rec bind_all acc = function
      | [] -> List.rev acc
      | addr :: rest -> (
          match
            Transport.listen ~backlog:cfg.Service.backlog
              ?socket_mode:cfg.Service.socket_mode addr
          with
          | fd -> bind_all ((Transport.bound_address addr fd, fd) :: acc) rest
          | exception e ->
              List.iter (fun (a, fd) -> Transport.close_listener a fd) acc;
              raise e)
    in
    bind_all [] listen
  in
  {
    service;
    listeners;
    lock = Mutex.create ();
    stop = false;
    conns = Conns.create ();
  }

let service t = t.service
let addresses t = List.map fst t.listeners

let request_stop t =
  Mutex.lock t.lock;
  t.stop <- true;
  Mutex.unlock t.lock

let stopping t =
  Mutex.lock t.lock;
  let s = t.stop in
  Mutex.unlock t.lock;
  s

let handle_request t = function
  | Protocol.Hello -> Protocol.ok (Protocol.hello_banner ())
  | Protocol.Stats -> Protocol.ok (Service.stats_json t.service)
  | Protocol.Shutdown ->
      request_stop t;
      Protocol.ok (Json.Obj [ ("shutting_down", Json.Bool true) ])
  | Protocol.Submit job -> (
      (* The two fleet-level faults act out {e before} admission, where a
         real slow or dying worker would stall or vanish: [serve.slow]
         delays the whole exchange (the router's hedge trigger),
         [serve.crash] kills the process abruptly mid-connection — exactly
         what the supervisor's restart loop and the router's breakers are
         built to absorb. *)
      if Inject.fire Inject.serve_slow then Inject.sleep_payload Inject.serve_slow;
      if Inject.fire Inject.serve_crash then Unix._exit 70;
      match Service.submit t.service job with
      | `Rejected r -> r
      | `Ticket ticket -> (
          match Scheduler.await ticket with
          | Ok reply -> reply
          | Error (Scheduler.Evicted { retry_after_ms }) ->
              (* Queued past its deadline: shed late, same typed reply as
                 shed-at-admission. *)
              Protocol.overloaded ~id:job.Protocol.id ~retry_after_ms
                "job evicted from the queue past its deadline"
          | Error e ->
              (* Service catches every expected failure inside the job, so
                 only a genuinely unexpected exception lands here. *)
              Protocol.error ~id:job.Protocol.id ~kind:"internal"
                (Printexc.to_string e)))

let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* The two socket-path injection points (chaos tests): [serve.drop] kills
     the connection instead of replying, [serve.partial] leaks half a line
     first — either way the client sees the connection close mid-exchange,
     exactly what a crashed or OOM-killed daemon produces.  The raised
     [Sys_error] rides the connection handler's normal teardown path. *)
  let send json =
    if Inject.fire Inject.serve_drop then begin
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise (Sys_error "injected: connection dropped")
    end;
    let line = Json.to_string json ^ "\n" in
    if Inject.fire Inject.serve_partial then begin
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise (Sys_error "injected: partial write")
    end;
    output_string oc line;
    flush oc
  in
  let serve_line line =
    let reply =
      match Protocol.request_of_json (Json.parse line) with
      | exception Failure m -> Protocol.error ~kind:"protocol" m
      | request -> handle_request t request
    in
    send (Protocol.reply_to_json reply)
  in
  try
    send (Protocol.hello_banner ());
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> ()
      | line ->
          if String.trim line <> "" then serve_line line;
          loop ()
    in
    loop ()
  with Sys_error _ | Unix.Unix_error _ -> ()

let serve t =
  let socks = List.map snd t.listeners in
  let rec accept_loop () =
    if not (stopping t) then begin
      (* Poll so a stop request (from a handler thread) is noticed even when
         no client ever connects again. *)
      (match Unix.select socks [] [] 0.2 with
      | [], _, _ -> ()
      | ready, _, _ ->
          List.iter
            (fun sock ->
              match Unix.accept sock with
              | fd, _ -> Conns.spawn t.conns (handle_conn t) fd
              | exception Unix.Unix_error _ -> ())
            ready);
      accept_loop ()
    end
  in
  accept_loop ();
  (* Graceful teardown: finish the admitted jobs (their replies flush on the
     still-open connections), then unblock the readers and wait them out. *)
  Service.shutdown t.service;
  List.iter (fun (addr, fd) -> Transport.close_listener addr fd) t.listeners;
  Conns.shutdown t.conns

let run ?config ~listen () = serve (create ?config ~listen ())
