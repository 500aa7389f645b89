(** One polynomial interpolation pass: evaluate the (scaled) network
    polynomial at [k] points on the unit circle and recover coefficients by
    inverse DFT (paper §2.1, eqs. 4-6).

    Supports the §3.3 problem reduction (eq. 17): when some coefficients are
    already known, the pass evaluates
    [P'(s) = (P(s) - sum_known p_i s^i) / s^base] and interpolates only the
    [k] unknown coefficients starting at power [base], shrinking the number
    of LU decompositions accordingly.

    Values are collected in extended range and brought to a common binary
    exponent before the double-precision IDFT, so badly-scaled passes
    degrade exactly as on the paper's 16-digit machine instead of
    overflowing. *)

type t = {
  scale : Scaling.pair;
  base : int;  (** power of [s] of the first recovered coefficient *)
  normalized : Symref_numeric.Extcomplex.t array;
      (** [normalized.(i)] is the coefficient of [s^(base+i)] {e at the
          pass's normalisation}. *)
  points : int;       (** interpolation points used, [k] *)
  evaluations : int;  (** LU evaluations actually performed (conjugate
                          symmetry halves this) *)
  ceiling : Symref_numeric.Extfloat.t;
      (** largest pre-deflation value magnitude over the interpolation
          points: the round-off noise in the recovered coefficients is
          [~1e-16 * ceiling] regardless of deflation, which anchors the
          validity floor (see {!Band.detect}) *)
  singular_retries : int;
      (** singular (zero) evaluations of a {e guarded} evaluator retried at
          perturbed points in this pass (see the recovery note below) *)
  nonfinite_retries : int;  (** non-finite evaluations retried likewise *)
  retry_giveups : int;
      (** points that stayed singular/non-finite after the retry budget
          (their last value was collected as-is) *)
}

val run :
  ?conj_symmetry:bool ->
  ?full_spectrum_idft:bool ->
  ?known:(int * Symref_numeric.Extfloat.t) list ->
  ?base:int ->
  Evaluator.t ->
  scale:Scaling.pair ->
  k:int ->
  t
(** [run ev ~scale ~k] interpolates [k] coefficients.  [known] lists
    {e denormalised} coefficients to deflate (eq. 17); [base] (default [0])
    is the first power to recover.  [conj_symmetry] (default [true])
    evaluates only the upper half circle and completes by conjugation
    (real-coefficient polynomials, §2.1); the inverse transform then also
    runs on the half spectrum ({!Dft.inverse_real_spectrum}), folding each
    conjugate pair before summation — about half the IDFT multiply-adds.
    Power-of-two [k] keeps the FFT on the completed spectrum and is
    bit-identical to previous releases; other [k] agree to a few ulp.
    [full_spectrum_idft] (default [false]) forces the conjugate-completed
    full transform of previous releases even under [conj_symmetry] — the
    approximate (rather than exact) cancellation of conjugate pairs leaves
    the imaginary round-off residue that {!Naive.garbage_fraction} reads as
    its failure signature.  The whole point set is one evaluator call on
    the calling domain.

    {b Singular-point recovery.}  When a {e guarded} evaluator (see
    {!Evaluator.t.guarded}) returns an exactly-zero or non-finite value —
    the scaled matrix was singular at that unit-circle point, whether
    structurally, through an injected fault, or by NaN contamination — the
    point is recovered from a symmetric pair of rotated positions:
    the average of [P(s e^{+i delta})] and [P(s e^{-i delta})] cancels the
    rotation's first-order error, leaving an [O(delta^2)] bias far below
    the sigma-digit validity floor of even band-edge coefficients.  Up to
    3 attempts with [delta = 1e-9 * 10^attempt] radians, each pair one
    evaluator call, made after the whole point set, in point order; a
    half-successful pair keeps its one good (first-order accurate) value as
    the fallback.
    Retries are counted in the [guard.*] metrics and the result's
    [singular_retries]/[nonfinite_retries]/[retry_giveups] fields; the
    policy is deterministic.
    @raise Invalid_argument when [k < 1] or [base < 0]. *)
