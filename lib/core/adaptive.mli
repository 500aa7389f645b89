(** The adaptive-scaling reference-generation algorithm (paper §3.2-3.3).

    Successive interpolations, each with scale factors computed from the
    previous pass, until every coefficient of the network polynomial is
    either established with [sigma] significant digits or shown to be
    negligible at every scale (an over-estimate of the order, or a
    structural gap):

    + first pass with [f = 1/mean C], [g = 1/mean G];
    + detect the valid band (eq. 12), denormalise and record it;
    + move towards the remaining unknown coefficients with the tilt of
      eqs. (13)-(15), or the geometric-mean scales of eq. (16) for a gap
      between two established bands;
    + optionally deflate already-known coefficients (eq. 17) so later passes
      interpolate fewer points;
    + a pass that yields nothing new widens [r] and retries; after
      [dry_passes] consecutive failures the remaining coefficients in that
      direction are declared zero. *)

type config = {
  sigma : int;  (** significant digits wanted (default 6, as in §3.2) *)
  r : float;  (** band-placement tuning factor of eq. 14 (default 1.0) *)
  reduce : bool;  (** eq. 17 problem reduction (default true) *)
  conj_symmetry : bool;  (** half-circle evaluation (default true) *)
  max_passes : int;  (** hard stop (default 64) *)
  dry_passes : int;
      (** consecutive empty passes before declaring zeros (default 2) *)
  scaling_policy : [ `Split | `Frequency_only ];
      (** eq. 13 simultaneous scaling ([`Split], default) vs the naive
          single-factor alternative (ablation; see {!Scaling.tilt}) *)
}

val default_config : config

type band_report = {
  pass : int;          (** 1-based interpolation number *)
  band : Band.t option;  (** valid region found, absolute powers *)
  scale : Scaling.pair;
  points : int;
  evaluations : int;   (** LU evaluations in this pass *)
  fresh : int;         (** coefficients established by this pass *)
}

(** Which objective the run was pursuing when it gave up — the structured
    replacement for "converged = false, good luck". *)
type stall =
  | No_stall  (** the run converged, or stopped with nothing left to do *)
  | Stalled_above of int
      (** [max_passes] hit while tilting up from this established edge *)
  | Stalled_below of int  (** likewise, tilting down from this edge *)
  | Stalled_gap of int * int
      (** likewise, filling the unknown run between these two indices *)
  | Peak_lost of int
      (** the established set showed no peak at the edge's own scale — a
          numerically corrupted state (theoretically unreachable; previously
          an assertion failure) *)

type diagnosis = {
  stalled : stall;
  dry_pass_total : int;  (** passes that established nothing, whole run *)
  last_band : Band.t option;  (** valid band of the final pass *)
  singular_retries : int;
      (** singular evaluations recovered at perturbed points
          ({!Interp.run}'s guard), summed over all passes *)
  nonfinite_retries : int;  (** non-finite evaluations recovered likewise *)
  retry_giveups : int;  (** points whose retry budget ran out *)
}

val clean_diagnosis : diagnosis
(** All-clear: [No_stall], zero counters, no band — the value hand-built
    results in tests start from. *)

type result = {
  coeffs : Symref_numeric.Extfloat.t array;
      (** denormalised coefficients [0 .. order_bound]; zero where declared
          negligible *)
  established : bool array;
      (** [true] where a band actually produced the value *)
  owners : int array;
      (** 1-based pass number that established each coefficient; [0] where
          none did *)
  gdeg : int;  (** homogeneity degree of the evaluator, for renormalisation *)
  effective_order : int;
      (** highest established power (paper §3.3: orders proven below the
          error level are treated as absent) *)
  reports : band_report list;  (** chronological *)
  passes : int;
  evaluations : int;  (** total LU evaluations *)
  max_overlap_mismatch : float;
      (** worst relative disagreement on coefficients seen by two passes —
          the paper's cross-validation criterion (§3.1): coefficients valid
          in two interpolations must agree *)
  converged : bool;
      (** [false] when [max_passes] (or a lost peak) stopped the loop with
          coefficients still undecided (those are reported as zero) *)
  diagnosis : diagnosis;
      (** what stalled and what was recovered — meaningful whether or not
          the run converged *)
}

val check_sigma : int -> unit
(** Refuses a [sigma] outside [1 .. -Band.noise_exponent - 1], that is
    1..12: at [sigma = 13] eq. 12's threshold equals the pass's largest
    coefficient, which leaves no headroom.  Callers that take [sigma] from
    a user run it before any other work.
    @raise Invalid_argument with ["sigma: N is outside 1..12"]. *)

val run : ?config:config -> Evaluator.t -> result
(** @raise Invalid_argument when [config.sigma] fails {!check_sigma} or the
    evaluator's order bound is negative. *)

val coefficient_ratios : result -> float array
(** [|p_(i+1) / p_i|] in decades ([log10]) for established consecutive
    pairs ([nan] elsewhere) — the 1e6..1e12 consecutive-coefficient spread
    the paper cites as the core difficulty (§2.2). *)
