module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Epoly = Symref_poly.Epoly

type report = {
  probes : int;
  max_relative_residual : float;
  passed : bool;
}

(* Off-circle probe points: radii away from 1 so these were never
   interpolation points, angles away from the axes. *)
let probe_points =
  [|
    { Complex.re = 0.83 *. Float.cos 0.7; im = 0.83 *. Float.sin 0.7 };
    { Complex.re = 1.21 *. Float.cos 2.1; im = 1.21 *. Float.sin 2.1 };
    { Complex.re = -0.95 *. Float.cos 1.3; im = 0.95 *. Float.sin 1.3 };
  |]

let check ?(tolerance = 1e-4) (ev : Evaluator.t) (result : Adaptive.result) =
  let gdeg = result.Adaptive.gdeg in
  let scales =
    List.filter_map
      (fun p -> if p.Adaptive.fresh > 0 then Some p.Adaptive.scale else None)
      result.Adaptive.reports
  in
  let probes = ref 0 in
  let worst = ref 0. in
  (* A guarded evaluator's zero or non-finite probe value is a failed
     factorisation, not a property of the network function; skipping the
     probe (a zero denom below) would silently weaken the check exactly when
     the pipeline is degraded.  Both sides of the comparison are evaluated
     at the same point, so the probe simply moves to a nearby one — no
     bias, unlike the on-circle recovery of {!Interp.run} where the point
     is prescribed by the IDFT. *)
  let good (v : Ec.t) =
    (not (Ec.is_zero v))
    && Float.is_finite v.Ec.c.Complex.re
    && Float.is_finite v.Ec.c.Complex.im
  in
  let eval scale points = ev.Evaluator.eval ~f:scale.Scaling.f ~g:scale.Scaling.g points in
  let rec move scale attempt s v =
    if good v || (not ev.Evaluator.guarded) || attempt >= 3 then (s, v)
    else begin
      let delta = 1e-6 *. (10. ** float_of_int attempt) in
      let s = Complex.mul s { Complex.re = Float.cos delta; im = Float.sin delta } in
      move scale (attempt + 1) s (eval scale [| s |]).(0)
    end
  in
  List.iter
    (fun scale ->
      (* Renormalise the full coefficient set to this band's scale. *)
      let normalized =
        Epoly.of_coeffs
          (Array.mapi
             (fun i c -> Scaling.normalize ~gdeg scale i c)
             result.Adaptive.coeffs)
      in
      (* One call for the band's probe set; a probe that has to move is
         evaluated on its own. *)
      let values = eval scale probe_points in
      Array.iteri
        (fun i s ->
          incr probes;
          let s, fresh = move scale 0 s values.(i) in
          let reconstructed = Epoly.eval normalized (Ec.of_complex s) in
          let denom = Ec.norm fresh in
          if not (Ef.is_zero denom) then begin
            let residual =
              Ef.to_float (Ef.div (Ec.norm (Ec.sub reconstructed fresh)) denom)
            in
            if residual > !worst then worst := residual
          end)
        probe_points)
    scales;
  (* A check that probed nothing has shown nothing. *)
  {
    probes = !probes;
    max_relative_residual = !worst;
    passed = !probes > 0 && !worst <= tolerance;
  }
