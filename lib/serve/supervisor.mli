(** Process supervisor for a worker fleet ([symref fleet]'s back half).

    One {e slot} per worker.  The supervisor spawns each slot through a
    caller callback (it never knows what a worker is), reaps exits with
    non-blocking [waitpid], and restarts crashed slots after a capped
    exponential backoff stretched by the same deterministic jitter as
    {!Router.probe_jitter} — a replayed supervision schedule is
    identical.  Crashes inside a sliding window count against a per-slot
    budget; a slot that exhausts it is {e given up} (counted in
    [fleet.giveups]) so a worker that can never start does not burn CPU
    forever, while the rest of the fleet keeps serving.  Restarts count
    in [fleet.restarts].

    Shutdown escalates politely: a caller-supplied notify (typically the
    protocol Shutdown request) first, SIGTERM for whoever ignored it,
    SIGKILL for whoever ignored that, each rung separated by the grace
    period — and every child is reaped before {!stop} returns. *)

type config = {
  restart_delay_ms : float;
      (** Backoff base: the delay after the first crash in the window. *)
  max_restart_delay_ms : float;
      (** Cap on the doubled backoff. *)
  crash_budget : int;
      (** Crashes tolerated inside [crash_window_s] before giving up. *)
  crash_window_s : float;
      (** Sliding window over which crashes are counted. *)
}

val default_config : config
(** [{restart_delay_ms = 100.; max_restart_delay_ms = 5000.;
      crash_budget = 5; crash_window_s = 30.}] *)

type slot_state =
  | Running of int  (** The child's pid. *)
  | Backing_off of { until : float }
      (** Crashed; restarts at [until] (unix time). *)
  | Given_up  (** Crash budget exhausted, or never started / stopped. *)

type t

val create : ?config:config -> slots:int -> spawn:(slot:int -> int) -> unit -> t
(** [create ~slots ~spawn ()] prepares [slots] worker slots; [spawn
    ~slot] must fork+exec slot [slot]'s worker and return its pid (called
    once per (re)start, from the supervising thread).  Nothing runs until
    {!start} or {!run}.  @raise Invalid_argument when [slots < 1] or
    [crash_budget < 1]. *)

val start : t -> unit
(** Spawn every slot that is not already running. *)

val step : ?now:float -> t -> unit
(** One supervision beat: reap exited children (their slots go on the
    backoff schedule, or give up past the budget) and spawn slots whose
    backoff has passed.  Never blocks.  [now] (unix time) is injectable
    so tests can replay a schedule. *)

val run : t -> Thread.t
(** {!start}, then loop {!step} every 50 ms on a fresh thread until
    {!stop}; returns that thread (join it after [stop] for a clean
    wind-down). *)

val slots : t -> int

val slot_state : t -> int -> slot_state

val restarts : t -> int
(** Restarts performed since {!create} (not counting first spawns). *)

val stopping : t -> bool

val stop : ?grace_s:float -> ?notify:(slot:int -> pid:int -> unit) -> t -> unit
(** Wind the fleet down.  [notify] (when given) is the polite first rung
    — typically a protocol Shutdown to the slot's address; exceptions it
    raises are swallowed.  Children still alive [grace_s] (default 2.0)
    after the notify get SIGTERM; still alive after another grace,
    SIGKILL.  Every child is reaped before this returns, and every slot
    ends [Given_up]. *)

val stats_json : t -> Symref_obs.Json.t
(** [{role; restarts; slots: [{slot; state; pid; spawns;
    recent_crashes}]}]. *)
