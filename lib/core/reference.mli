(** The public façade: numerical references (network-function coefficients)
    for a circuit, computed with the adaptive-scaling algorithm.

    This is what SBG/SDG error control consumes (paper eq. 3): the value of
    every coefficient of [H(s) = N(s) / D(s)] at the design point. *)

module Ef = Symref_numeric.Extfloat

type t = {
  num : Adaptive.result;
  den : Adaptive.result;
  input : Symref_mna.Nodal.input;
  output : Symref_mna.Nodal.output;
  config : Adaptive.config;
  problem : Symref_mna.Nodal.t;
      (** the prepared nodal problem the references were generated from —
          what {!health} builds its fresh verification evaluators on *)
}

val generate :
  ?config:Adaptive.config ->
  ?reuse:bool ->
  ?check:(unit -> unit) ->
  Symref_circuit.Netlist.t ->
  input:Symref_mna.Nodal.input ->
  output:Symref_mna.Nodal.output ->
  t
(** Runs the adaptive algorithm on the numerator and the denominator.  The
    two runs draw from one {!Evaluator.of_nodal_shared} table — one
    factorisation yields both values (eq. 8-10) — and each interpolation
    pass is one batched elimination-program replay
    ({!Symref_mna.Nodal.eval_batch}).
    [reuse] (default [true]) enables the symbolic/numeric factorisation
    split per scale pair (see {!Symref_mna.Nodal.make}); it is a pure cost
    switch: the returned coefficients agree to far more than [sigma]
    digits either way.
    [check] is a cooperative-cancellation hook run before {e every}
    evaluator call — an interpolation pass or a guard-retry pair, one LU
    decomposition per point: raising from it aborts the generation with
    that exception — {!Symref_serve} uses it to enforce per-job wall-clock
    deadlines without killing the worker, which then stops within one
    pass.  When [check] never raises the result is unchanged.
    @raise Invalid_argument when [config.sigma] fails
    {!Adaptive.check_sigma}.
    @raise Symref_mna.Nodal.Unsupported outside the nodal class. *)

val numerator : t -> Symref_poly.Epoly.t
val denominator : t -> Symref_poly.Epoly.t

val eval : t -> Complex.t -> Complex.t
(** [H(s)] from the reference coefficients (extended-range Horner and
    division, rounded at the end). *)

val dc_gain : t -> float
(** [H(0) = n_0 / d_0].  When [d_0 = 0] the gain diverges: the result is
    [infinity] or [neg_infinity] following the sign of [n_0], and [nan]
    when [n_0 = 0] too (indeterminate). *)

type bode_point = { freq_hz : float; mag_db : float; phase_deg : float }

val bode : t -> float array -> bode_point array
(** Bode data from the interpolated coefficients (the "interpolated" curves
    of Fig. 2), with unwrapped phase. *)

val bode_vs_simulator :
  t -> Symref_mna.Ac.bode_point array -> float * float
(** [(max |delta mag|, max |delta phase|)] against an AC-simulator sweep of
    the same frequencies — the Fig. 2 agreement metric. *)

val total_evaluations : t -> int
(** LU decompositions spent for both polynomials. *)

(** {1 Health}

    The one-stop answer to "can I trust this result?" — convergence of
    both adaptive runs, an independent {!Verify.check} residual probe of
    both polynomials, and the guard's recovery counters
    (see [doc/robustness.mld]). *)

type health = {
  converged : bool;  (** both adaptive runs converged *)
  verified : bool;  (** both residual checks passed *)
  max_residual : float;
      (** worst relative residual over all probes, both sides *)
  probes : int;  (** verification probes evaluated, both sides *)
  singular_retries : int;
      (** singular points recovered at perturbed positions, both sides *)
  nonfinite_retries : int;  (** non-finite values recovered likewise *)
  retry_giveups : int;  (** points whose retry budget ran out *)
  healthy : bool;
      (** [converged && verified && retry_giveups = 0] — recovered retries
          do {e not} make a result unhealthy, exhausted budgets do *)
}

val health : ?tolerance:float -> t -> health
(** Re-evaluates the circuit at {!Verify}'s off-circle probe points and
    combines the residuals with the generation's own diagnosis.  The probes
    run on a fresh {!Evaluator.of_nodal_shared} table that the numerator
    and denominator checks share — never the generation's table.
    [tolerance] is {!Verify.check}'s (default [1e-4]). *)

val health_to_strings : health -> (string * string) list
(** Rendered key/value rows, in display order — shared by the [doctor]
    CLI report and the serve reply payload. *)
