(* The serve daemon: a {!Service} behind a {!Front}. *)

module Inject = Symref_fault.Inject

type t = { service : Service.t; front : Front.t }

let create ?config ~listen () =
  (* The service first: its config check must come before any bind. *)
  let service = Service.create ?config () in
  let cfg = Service.config service in
  let front =
    Front.create ~backlog:cfg.Service.backlog
      ?socket_mode:cfg.Service.socket_mode listen
  in
  { service; front }

let service t = t.service
let addresses t = Front.addresses t.front
let request_stop t = Front.request_stop t.front

let submit t (job : Protocol.job) =
  (* The two fleet-level faults act out {e before} admission, where a real
     slow or dying worker would stall or vanish: [serve.slow] delays the
     whole exchange (the router's hedge trigger), [serve.crash] kills the
     process abruptly mid-connection — exactly what the supervisor's
     restart loop and the router's breakers are built to absorb. *)
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
            (Printexc.to_string e))

let serve t =
  Front.serve t.front
    ~stats:(fun () -> Service.stats_json t.service)
    ~submit:(submit t);
  (* Graceful teardown: finish the admitted jobs (their replies flush on the
     still-open connections), then unblock the readers and wait them out. *)
  Service.shutdown t.service;
  Front.close t.front

let run ?config ~listen () = serve (create ?config ~listen ())
