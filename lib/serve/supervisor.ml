(* Process supervisor for a worker fleet.

   One slot per worker.  The supervisor spawns each slot via a caller
   callback (it never knows what a worker *is* — [symref fleet] passes an
   exec of [symref serve], the tests pass /bin/sh), reaps exits with
   non-blocking waitpid, and restarts crashed slots after a capped
   exponential backoff with deterministic jitter.  Crashes inside a
   sliding window count against a per-slot budget; a slot that exhausts
   it is given up — a worker that can never start (bad directory, port
   taken by a stranger) must not burn CPU forever, and the rest of the
   fleet keeps serving without it.

   Shutdown escalates: a caller-supplied polite notify (the protocol
   Shutdown request) first, SIGTERM for whoever ignored it, SIGKILL for
   whoever ignored that — each rung separated by the grace period, and
   every child is reaped before [stop] returns, so no zombies outlive the
   supervisor. *)

module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

type config = {
  restart_delay_ms : float;  (* backoff base after the first crash *)
  max_restart_delay_ms : float;
  crash_budget : int;  (* crashes within the window before giving up *)
  crash_window_s : float;
}

let default_config =
  {
    restart_delay_ms = 100.;
    max_restart_delay_ms = 5_000.;
    crash_budget = 5;
    crash_window_s = 30.;
  }

type slot_state =
  | Running of int  (** pid *)
  | Backing_off of { until : float }
  | Given_up

type slot = {
  index : int;
  mutable state : slot_state;
  mutable crashes : float list;  (* recent crash times, newest first *)
  mutable spawns : int;  (* total spawns, salts the backoff jitter *)
}

type t = {
  config : config;
  spawn : slot:int -> int;
  slots : slot array;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable restarts : int;
}

let create ?(config = default_config) ~slots ~spawn () =
  if slots < 1 then invalid_arg "Supervisor.create: slots must be >= 1";
  if config.crash_budget < 1 then
    invalid_arg "Supervisor.create: crash_budget must be >= 1";
  {
    config;
    spawn;
    slots =
      Array.init slots (fun index ->
          { index; state = Given_up; crashes = []; spawns = 0 });
    lock = Mutex.create ();
    stopping = false;
    restarts = 0;
  }

(* A signal (the fleet front fields SIGTERM) must never unwind the
   monitor loop or a reap wait: an interrupted nap just ends early. *)
let sleepf s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let slots t = Array.length t.slots

let slot_state t i = Mutex.protect t.lock (fun () -> t.slots.(i).state)

let restarts t = Mutex.protect t.lock (fun () -> t.restarts)

let stopping t = Mutex.protect t.lock (fun () -> t.stopping)

let spawn_slot t (s : slot) =
  s.spawns <- s.spawns + 1;
  let pid = t.spawn ~slot:s.index in
  s.state <- Running pid

let start t =
  Mutex.protect t.lock (fun () ->
      Array.iter
        (fun s -> match s.state with Given_up -> spawn_slot t s | _ -> ())
        t.slots)

(* Backoff after the [n]th recent crash: base * 2^(n-1), capped, stretched
   by the same deterministic jitter the router's prober uses — pure in
   (slot, spawn count), so a replayed supervision schedule is identical. *)
let backoff_s t (s : slot) recent =
  Float.min t.config.max_restart_delay_ms
    (t.config.restart_delay_ms
    *. Float.pow 2. (float_of_int (Int.min (recent - 1) 10)))
  /. 1000.
  *. Router.probe_jitter ~salt:s.index s.spawns

let record_crash t (s : slot) now =
  let window = now -. t.config.crash_window_s in
  s.crashes <- now :: List.filter (fun c -> c > window) s.crashes;
  let recent = List.length s.crashes in
  if recent > t.config.crash_budget then begin
    s.state <- Given_up;
    Metrics.incr Metrics.fleet_giveups
  end
  else s.state <- Backing_off { until = now +. backoff_s t s recent }

(* One supervision beat: reap any slot whose child exited (restart goes on
   the backoff schedule), and spawn any slot whose backoff has passed.
   Non-blocking throughout; callers loop this a few times a second. *)
let step ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Mutex.protect t.lock (fun () ->
      Array.iter
        (fun s ->
          match s.state with
          | Given_up -> ()
          | Running pid -> (
              if not t.stopping then
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> () (* still running *)
                | _, _ -> record_crash t s now
                | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                    (* Reaped elsewhere (a stop raced us): treat as exit. *)
                    record_crash t s now
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | Backing_off { until } ->
              if (not t.stopping) && now >= until then begin
                t.restarts <- t.restarts + 1;
                Metrics.incr Metrics.fleet_restarts;
                spawn_slot t s
              end)
        t.slots)

let run t =
  start t;
  Thread.create
    (fun () ->
      while not (stopping t) do
        step t;
        sleepf 0.05
      done)
    ()

let kill_quietly pid signal = try Unix.kill pid signal with Unix.Unix_error _ -> ()

(* Reap [pids] without blocking more than [grace] seconds total; returns
   the survivors. *)
let reap_within pids grace =
  let deadline = Unix.gettimeofday () +. grace in
  let rec loop pending =
    if pending = [] then []
    else
      let still =
        List.filter
          (fun pid ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _, _ -> false
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
          pending
      in
      if still = [] || Unix.gettimeofday () >= deadline then still
      else begin
        sleepf 0.02;
        loop still
      end
  in
  loop pids

let stop ?(grace_s = 2.0) ?notify t =
  let running =
    Mutex.protect t.lock (fun () ->
        t.stopping <- true;
        Array.fold_left
          (fun acc s ->
            match s.state with
            | Running pid -> (s, pid) :: acc
            | Backing_off _ | Given_up ->
                s.state <- Given_up;
                acc)
          [] t.slots)
  in
  (* Rung 1: the polite ask (protocol Shutdown, when the caller knows how
     to speak to its workers). *)
  (match notify with
  | None -> ()
  | Some f ->
      List.iter
        (fun (s, pid) ->
          try f ~slot:s.index ~pid with _ -> ())
        running);
  let pids = List.map snd running in
  let after_notify = reap_within pids (if notify = None then 0. else grace_s) in
  (* Rung 2: SIGTERM whoever ignored the ask. *)
  List.iter (fun pid -> kill_quietly pid Sys.sigterm) after_notify;
  let after_term = reap_within after_notify grace_s in
  (* Rung 3: SIGKILL is not ignorable; the final reap may block briefly
     but cannot hang. *)
  List.iter (fun pid -> kill_quietly pid Sys.sigkill) after_term;
  List.iter
    (fun pid ->
      try ignore (Unix.waitpid [] pid)
      with Unix.Unix_error _ -> ())
    after_term;
  Mutex.protect t.lock (fun () ->
      Array.iter (fun s -> s.state <- Given_up) t.slots)

let stats_json t =
  Mutex.protect t.lock (fun () ->
      let per_slot =
        Array.to_list
          (Array.map
             (fun s ->
               let state, pid =
                 match s.state with
                 | Running pid -> ("running", float_of_int pid)
                 | Backing_off _ -> ("backing_off", -1.)
                 | Given_up -> ("given_up", -1.)
               in
               Json.Obj
                 [
                   ("slot", Json.Num (float_of_int s.index));
                   ("state", Json.Str state);
                   ("pid", Json.Num pid);
                   ("spawns", Json.Num (float_of_int s.spawns));
                   ( "recent_crashes",
                     Json.Num (float_of_int (List.length s.crashes)) );
                 ])
             t.slots)
      in
      Json.Obj
        [
          ("role", Json.Str "supervisor");
          ("restarts", Json.Num (float_of_int t.restarts));
          ("slots", Json.Arr per_slot);
        ])
