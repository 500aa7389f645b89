(* The one place a request enters the serve tier: listeners, the accept
   loop and the NDJSON exchange on every connection, shared by the daemon
   and the router's front. *)

module Json = Symref_obs.Json
module Inject = Symref_fault.Inject

type t = {
  listeners : (Transport.address * Unix.file_descr) list;
  stop : bool Atomic.t;
  conns : Conns.t;
}

let create ?backlog ?socket_mode listen =
  if listen = [] then invalid_arg "Front.create: no listen addresses";
  (* A client that disconnects while a reply is in flight must surface as a
     write error on that connection, not kill the whole process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners =
    (* Bind them all before serving anything; unwind on partial failure so
       a clashing port doesn't leak the sockets that did bind. *)
    let rec bind_all acc = function
      | [] -> List.rev acc
      | addr :: rest -> (
          match Transport.listen ?backlog ?socket_mode addr with
          | fd -> bind_all ((Transport.bound_address addr fd, fd) :: acc) rest
          | exception e ->
              List.iter (fun (a, fd) -> Transport.close_listener a fd) acc;
              raise e)
    in
    bind_all [] listen
  in
  { listeners; stop = Atomic.make false; conns = Conns.create () }

let addresses t = List.map fst t.listeners
let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let answer t ~stats ~submit = function
  | Protocol.Hello -> Protocol.ok (Protocol.hello_banner ())
  | Protocol.Stats -> Protocol.ok (stats ())
  | Protocol.Shutdown ->
      request_stop t;
      Protocol.ok (Json.Obj [ ("shutting_down", Json.Bool true) ])
  | Protocol.Submit job -> submit job

let handle_conn t ~stats ~submit fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* The two socket-path injection points (chaos tests): [serve.drop] kills
     the connection instead of replying, [serve.partial] leaks half a line
     first — either way the client sees the connection close mid-exchange,
     exactly what a crashed or OOM-killed server produces.  The raised
     [Sys_error] rides the handler's normal teardown path. *)
  let send json =
    if Inject.fire Inject.serve_drop then begin
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise (Sys_error "injected: connection dropped")
    end;
    let text = Json.to_string json in
    if Inject.fire Inject.serve_partial then begin
      let line = text ^ "\n" in
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise (Sys_error "injected: partial write")
    end;
    output_string oc text;
    output_char oc '\n';
    flush oc
  in
  let serve_line line =
    let reply =
      match Protocol.request_of_json (Json.parse line) with
      | exception Failure m -> Protocol.error ~kind:"protocol" m
      | request -> answer t ~stats ~submit request
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

let serve t ~stats ~submit =
  let socks = List.map snd t.listeners in
  let rec accept_loop () =
    if not (stopping t) then begin
      (* Poll so a stop request (a handler thread, a signal) is noticed even
         when no client ever connects again. *)
      (match Unix.select socks [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | ready, _, _ ->
          List.iter
            (fun sock ->
              match Unix.accept sock with
              | fd, _ -> Conns.spawn t.conns (handle_conn t ~stats ~submit) fd
              | exception Unix.Unix_error _ -> ())
            ready);
      accept_loop ()
    end
  in
  accept_loop ()

let close t =
  List.iter (fun (addr, fd) -> Transport.close_listener addr fd) t.listeners;
  Conns.shutdown t.conns
