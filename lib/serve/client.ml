module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  banner : Json.t;
}

let connect ~addr =
  let fd = Transport.connect addr in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let banner =
    match input_line ic with
    | line -> Json.parse line
    | exception End_of_file ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Errors.fail Errors.No_banner
  in
  (* Version check at Hello, before any request crosses the wire: accept
     any protocol in [min_protocol_version, protocol_version] — older
     compatible peers keep a mixed-version fleet talking during a rolling
     restart — and refuse a missing field or a peer newer than this build
     (whose changes we cannot vouch for). *)
  let got =
    match Json.member "protocol" banner with
    | Some v -> ( try Json.to_int v with Failure _ -> 0)
    | None -> 0
  in
  if got < Protocol.min_protocol_version || got > Protocol.protocol_version
  then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Errors.fail
      (Errors.Version_mismatch { got; want = Protocol.protocol_version })
  end;
  { fd; ic; oc; banner }

let banner t = t.banner
let fd t = t.fd

let send t req =
  output_string t.oc (Json.to_string (Protocol.request_to_json req));
  output_char t.oc '\n';
  flush t.oc

let recv t =
  match input_line t.ic with
  | line -> Protocol.reply_of_json (Json.parse line)
  | exception End_of_file ->
      Errors.fail (Errors.Connection_closed { during = "the reply" })

let request t req =
  send t req;
  recv t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ~addr f =
  let t = connect ~addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- retry with capped exponential backoff --- *)

type backoff = {
  attempts : int;
  base_delay_ms : float;
  multiplier : float;
  max_delay_ms : float;
  jitter : float;
  seed : int;
}

let default_backoff =
  {
    attempts = 5;
    base_delay_ms = 25.;
    multiplier = 2.;
    max_delay_ms = 1000.;
    jitter = 0.2;
    seed = 0;
  }

(* SplitMix64-style finaliser over a structural hash: enough spread to
   decorrelate the jitter across attempts while staying a pure function of
   (seed, attempt) — schedules are reproducible, tests can assert them. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 33)) 0xff51afd7ed558ccdL in
  let x = mul (logxor x (shift_right_logical x 33)) 0xc4ceb9fe1a85ec53L in
  logxor x (shift_right_logical x 33)

let uniform ~seed n =
  let h = mix64 (Int64.of_int (Hashtbl.hash (seed, "client.backoff", n))) in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let backoff_delay b n =
  let nominal = b.base_delay_ms *. (b.multiplier ** float_of_int n) in
  let capped = Float.min b.max_delay_ms nominal in
  capped *. (1. +. (b.jitter *. (uniform ~seed:b.seed n -. 0.5)))

let backoff_schedule b =
  Array.init (Int.max 0 (b.attempts - 1)) (fun n -> backoff_delay b n)

(* When a backpressure reply carries the server's own drain estimate, that
   estimate replaces the fixed schedule for this attempt — the server knows
   its queue; the geometric schedule is the fallback for servers (or
   failures) that say nothing.  Still pure in (backoff, attempt, hint):
   the same jittered factor as [backoff_delay], a 1 ms floor against
   busy-spinning on a zero hint, the same cap against an absurd one. *)
let delay_after b ~attempt ~retry_after_ms =
  match retry_after_ms with
  | None -> backoff_delay b attempt
  | Some ms ->
      let capped = Float.min b.max_delay_ms (Float.max 1. ms) in
      capped *. (1. +. (b.jitter *. (uniform ~seed:b.seed attempt -. 0.5)))

(* Connection-level failures a fresh attempt can plausibly outlive: the
   daemon restarting (refused / socket file missing), a connection torn
   down mid-exchange (reset / pipe), or transient resource pressure. *)
let transient_errno = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
  | Unix.EAGAIN ->
      true
  | _ -> false

let retry_request ?(backoff = default_backoff)
    ?(sleep = fun ms -> Unix.sleepf (ms /. 1000.)) ~addr req =
  if backoff.attempts < 1 then invalid_arg "Client.retry_request: attempts < 1";
  let attempt () =
    (* A fresh connection per attempt: the previous one may be half-dead. *)
    match with_connection ~addr (fun t -> request t req) with
    | reply -> Ok reply
    | exception Unix.Unix_error (e, _, _) when transient_errno e ->
        Error (`Unix e)
    | exception Errors.Error e when Errors.transient e -> Error (`Typed e)
    | exception Sys_error _ -> Error `Sys
  in
  let backpressure (reply : Protocol.reply) =
    match reply.Protocol.status with
    | Protocol.Busy | Protocol.Overloaded -> true
    | Protocol.Ok | Protocol.Error | Protocol.Timeout -> false
  in
  let rec go n =
    let last = n = backoff.attempts - 1 in
    match attempt () with
    | Ok reply when backpressure reply && not last ->
        Metrics.incr Metrics.serve_client_retries;
        sleep
          (delay_after backoff ~attempt:n
             ~retry_after_ms:(Protocol.retry_after_ms reply));
        go (n + 1)
    | Ok reply -> reply (* success, a structured error, or the final give-up *)
    | Error failure ->
        if last then begin
          (* Budget exhausted: surface the terminal failure as-is. *)
          match failure with
          | `Unix e ->
              raise (Unix.Unix_error (e, "symref client", Transport.to_string addr))
          | `Typed e -> Errors.fail e
          | `Sys ->
              raise (Sys_error (Transport.to_string addr ^ ": connection failed"))
        end
        else begin
          Metrics.incr Metrics.serve_client_retries;
          sleep (backoff_delay backoff n);
          go (n + 1)
        end
  in
  go 0
