(** Independent a-posteriori verification of generated references.

    The adaptive algorithm certifies coefficients through the eq.-12
    validity criterion and cross-pass overlap; this module adds a
    {e structural} check: evaluate the reconstructed polynomial against
    fresh evaluator values at probe points that were never interpolation
    points, under scale factors chosen so each band dominates in turn.  A
    reference set with a wrong coefficient cannot pass for every band. *)

type report = {
  probes : int;
  max_relative_residual : float;
      (** worst [|P_reconstructed(s) - P_evaluated(s)| / |P_evaluated(s)|] *)
  passed : bool;
}

val check :
  ?tolerance:float ->
  Evaluator.t ->
  Adaptive.result ->
  report
(** [check ev result] probes each productive band of [result] at off-circle
    points with that band's scale factors.  [tolerance] defaults to [1e-4]
    (the residual bound for sigma = 6 coefficients with band-edge error).
    The evaluator must be the same network the result came from.  Each
    band's probe set is one evaluator call.  A check that ran no probes
    (no productive band) does not pass. *)
