module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Epoly = Symref_poly.Epoly
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Tr = Symref_obs.Trace

type t = {
  num : Adaptive.result;
  den : Adaptive.result;
  input : Nodal.input;
  output : Nodal.output;
  config : Adaptive.config;
  problem : Nodal.t;
}

(* The numerator and denominator runs draw from one memoised evaluation per
   point: every (f, g, s) the two adaptive schedules have in common — the
   entire first pass, whose scale and point set depend only on the problem —
   costs a single LU factorisation that yields both values.  [reuse]
   (default) enables the symbolic/numeric factorisation split inside
   {!Symref_mna.Nodal.make}; it changes cost only, never values. *)
let generate ?(config = Adaptive.default_config) ?(reuse = true) ?check circuit
    ~input ~output =
  let problem = Nodal.make ~reuse circuit ~input ~output in
  Tr.span ~cat:"reference"
    ~args:
      [
        ("dim", string_of_int (Nodal.dimension problem));
        ("reuse", string_of_bool reuse);
      ]
    "reference.generate"
  @@ fun () ->
  let shared = Evaluator.of_nodal_shared problem in
  (* Cooperative cancellation: every evaluator call — a pass, a retry pair
     — first runs the caller's check, which may raise (e.g. a deadline
     exceeded).  The evaluators are wrapped here rather than hooking
     Adaptive so the engines stay oblivious to scheduling concerns. *)
  let chk = Option.value check ~default:ignore in
  let guard (ev : Evaluator.t) =
    { ev with Evaluator.eval = (fun ~f ~g points -> chk (); ev.Evaluator.eval ~f ~g points) }
  in
  let ev_num = guard shared.Evaluator.snum and ev_den = guard shared.Evaluator.sden in
  let num = Tr.span ~cat:"reference" "reference.num" (fun () -> Adaptive.run ~config ev_num) in
  let den = Tr.span ~cat:"reference" "reference.den" (fun () -> Adaptive.run ~config ev_den) in
  { num; den; input; output; config; problem }

let numerator t = Epoly.of_coeffs t.num.Adaptive.coeffs
let denominator t = Epoly.of_coeffs t.den.Adaptive.coeffs

let eval t s =
  let z = Ec.of_complex s in
  let n = Epoly.eval (numerator t) z and d = Epoly.eval (denominator t) z in
  if Ec.is_zero d then Complex.{ re = infinity; im = 0. }
  else Ec.to_complex (Ec.div n d)

let dc_gain t =
  let n0 = Epoly.coeff (numerator t) 0 and d0 = Epoly.coeff (denominator t) 0 in
  if Ef.is_zero d0 then
    (* H(0) = n0 / 0: the sign of the divergence is the sign of n0; 0/0 is
       genuinely indeterminate. *)
    if Ef.is_zero n0 then Float.nan
    else if Ef.sign n0 > 0 then infinity
    else neg_infinity
  else Ef.to_float (Ef.div n0 d0)

type bode_point = { freq_hz : float; mag_db : float; phase_deg : float }

let bode t freqs =
  let np = numerator t and dp = denominator t in
  let raw =
    Array.map
      (fun f ->
        let w = 2. *. Float.pi *. f in
        let n = Epoly.eval_jomega np w and d = Epoly.eval_jomega dp w in
        let mag_db = 20. *. (Ec.log10_norm n -. Ec.log10_norm d) in
        let phase = (Ec.arg n -. Ec.arg d) *. 180. /. Float.pi in
        (f, mag_db, phase))
      freqs
  in
  let phases = Ac.unwrap_phase_deg (Array.map (fun (_, _, p) -> p) raw) in
  Array.mapi
    (fun i (f, m, _) -> { freq_hz = f; mag_db = m; phase_deg = phases.(i) })
    raw

let bode_vs_simulator t (sim : Ac.bode_point array) =
  let ours = bode t (Array.map (fun p -> p.Ac.freq_hz) sim) in
  let dmag = ref 0. and dph = ref 0. in
  Array.iteri
    (fun i p ->
      let o = ours.(i) in
      dmag := Float.max !dmag (Float.abs (o.mag_db -. p.Ac.mag_db));
      (* Phase curves are unwrapped independently; compare modulo 360. *)
      let d = Float.abs (o.phase_deg -. p.Ac.phase_deg) in
      let d = Float.rem d 360. in
      let d = Float.min d (360. -. d) in
      dph := Float.max !dph d)
    sim;
  (!dmag, !dph)

let total_evaluations t = t.num.Adaptive.evaluations + t.den.Adaptive.evaluations

(* --- health ------------------------------------------------------------- *)

type health = {
  converged : bool;
  verified : bool;
  max_residual : float;
  probes : int;
  singular_retries : int;
  nonfinite_retries : int;
  retry_giveups : int;
  healthy : bool;
}

let health ?tolerance t =
  (* A fresh table: the verification probes must not draw from the one the
     generation populated.  Both sides share it, so a probe point the
     numerator and denominator bands have in common is factorised once. *)
  let fresh = Evaluator.of_nodal_shared t.problem in
  let vn = Verify.check ?tolerance fresh.Evaluator.snum t.num in
  let vd = Verify.check ?tolerance fresh.Evaluator.sden t.den in
  let dn = t.num.Adaptive.diagnosis and dd = t.den.Adaptive.diagnosis in
  let converged = t.num.Adaptive.converged && t.den.Adaptive.converged in
  let verified = vn.Verify.passed && vd.Verify.passed in
  let retry_giveups = dn.Adaptive.retry_giveups + dd.Adaptive.retry_giveups in
  {
    converged;
    verified;
    max_residual =
      Float.max vn.Verify.max_relative_residual vd.Verify.max_relative_residual;
    probes = vn.Verify.probes + vd.Verify.probes;
    singular_retries = dn.Adaptive.singular_retries + dd.Adaptive.singular_retries;
    nonfinite_retries =
      dn.Adaptive.nonfinite_retries + dd.Adaptive.nonfinite_retries;
    retry_giveups;
    healthy = converged && verified && retry_giveups = 0;
  }

let health_to_strings h =
  [
    ("converged", string_of_bool h.converged);
    ("verified", string_of_bool h.verified);
    ("max_residual", Printf.sprintf "%.3e" h.max_residual);
    ("probes", string_of_int h.probes);
    ("singular_retries", string_of_int h.singular_retries);
    ("nonfinite_retries", string_of_int h.nonfinite_retries);
    ("retry_giveups", string_of_int h.retry_giveups);
    ("healthy", string_of_bool h.healthy);
  ]
