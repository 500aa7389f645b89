(** Deterministic, seedable fault injection for the reference pipeline.

    A {!point} is a named failure site compiled into the pipeline —
    {!Symref_linalg.Sparse} factorisations, {!Symref_core.Evaluator}
    evaluations, the serve front's socket writes.  The sites call {!fire}
    and act out the failure (singular pivot, poisoned value, raised
    exception, dropped connection) only when it returns [true].

    The cost contract mirrors {!Symref_obs.Metrics}: while the registry is
    disabled — the default — {!fire} is one non-atomic boolean load and a
    branch, so the hooks are free on hot paths.  While enabled, hit counting
    is atomic and every firing decision is a pure function of
    [(seed, point name, hit index)], so a chaos run replays bit-identically
    under any thread or domain interleaving.

    See [doc/robustness.mld] for the point catalogue and the recovery
    policies exercised against it. *)

val enabled : unit -> bool

val enable : ?seed:int -> unit -> unit
(** Reset every point, set the seed (default [0], used by
    {!plan.Probability} decisions) and turn the registry on.  Nothing is
    armed until {!arm}. *)

val disable : unit -> unit
(** Turn the registry off and reset every point ({!fire} returns [false]
    at full speed again). *)

val reset : unit -> unit
(** Zero all hit counters and disarm every point (keeps the registry
    enabled). *)

(** {1 Plans} *)

(** When an armed point fires, as a function of its hit index (0-based,
    counted across all threads). *)
type plan =
  | Never  (** disarmed (the state after {!enable} / {!reset}) *)
  | Times of { skip : int; count : int }
      (** fire on hits [skip .. skip + count - 1] — "the Nth evaluation" *)
  | Every of int  (** fire on every [n]-th hit (hit indices [0, n, 2n, ...]) *)
  | Probability of float
      (** fire with this probability, decided by a deterministic hash of
          [(seed, name, hit)] — reproducible randomness *)

type point

val arm : ?payload:float -> point -> plan -> unit
(** Arm one point (resetting its counters).  [payload] is a per-point
    parameter the site interprets — e.g. a delay in milliseconds for
    [evaluator.delay]. *)

val fire : point -> bool
(** [true] when the armed plan says this hit should fail.  Free while the
    registry is disabled. *)

val payload : point -> float
val hits : point -> int  (** times the site was reached since arming *)

val fired : point -> int  (** times the site actually failed *)

val name : point -> string
val all : unit -> point list
val find : string -> point option

exception Injected of string
(** The generic injected failure, raised by sites whose fault mode is an
    exception ([evaluator.raise]).  Carries the point name. *)

val fail : point -> 'a
(** [raise (Injected ...)] for this point. *)

val sleep_payload : point -> unit
(** Sleep [payload] milliseconds (no-op when [payload <= 0]) — the
    [evaluator.delay] fault mode. *)

(** {1 The injection-point catalogue} *)

val sparse_singular : point
(** [sparse.singular] — {!Symref_linalg.Sparse.factor} returns a singular
    factorisation ([det = 0]), and {!Symref_mna.Nodal.eval_batch} sends the
    point it fires on to a full factorisation instead of taking the batched
    replay's value, as if the pivot search had failed. *)

val eval_nan : point
(** [evaluator.nan] — the evaluation point [s] is poisoned with NaN before
    the nodal assembly: all matrix entries become NaN, the pivot search
    finds nothing, and the evaluation surfaces as a singular (zero) value —
    the same degradation path as [sparse.singular]. *)

val eval_raise : point
(** [evaluator.raise] — {!Symref_core.Evaluator} raises {!Injected}. *)

val eval_delay : point
(** [evaluator.delay] — the evaluation sleeps [payload] ms first. *)

val serve_drop : point
(** [serve.drop_connection] — the serve front (daemon or router) shuts the
    socket down instead of writing a line: the banner or a reply. *)

val serve_partial : point
(** [serve.partial_write] — the serve front (daemon or router) writes
    half a line, then shuts the socket down. *)

val serve_slow : point
(** [serve.slow_worker] — the daemon sleeps [payload] milliseconds before
    handling a submit request: a deterministically slow worker, the trigger
    the router's hedged requests are built to beat. *)

val serve_crash : point
(** [serve.crash] — the daemon process exits abruptly ([Unix._exit]) when a
    submit request arrives: crash-on-nth-job, the supervisor's restart and
    crash-loop machinery's trigger.  Only arm this in a dedicated worker
    process (via [SYMREF_FAULT] in its environment) — firing it in-process
    kills the host. *)

(** {1 Environment arming}

    [SYMREF_FAULT="point:key=val,...;point2:..."] arms points from the
    environment; keys are [skip]/[count] (a {!plan.Times}), [every],
    [p] (probability) and [payload].  [SYMREF_FAULT_SEED=n] enables the
    registry with seed [n] and nothing armed — the linked-but-disabled
    configuration the CI bit-identity gate compares against a plain run. *)

val arm_from_env : unit -> unit
(** Read [SYMREF_FAULT] / [SYMREF_FAULT_SEED] and enable/arm accordingly;
    no-op when neither is set.
    @raise Failure on a malformed spec or an unknown point name. *)
