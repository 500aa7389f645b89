module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Uc = Symref_dft.Unit_circle
module Dft = Symref_dft.Dft
module Epoly = Symref_poly.Epoly
module Obs = Symref_obs.Metrics
module Tr = Symref_obs.Trace

type t = {
  scale : Scaling.pair;
  base : int;
  normalized : Ec.t array;
  points : int;
  evaluations : int;
  ceiling : Ef.t;
  singular_retries : int;
  nonfinite_retries : int;
  retry_giveups : int;
}

(* Bring extended-range values to a common binary exponent and hand doubles
   to the IDFT; the common factor is reapplied afterwards.  This emulates the
   paper's double-precision pipeline (including its 1e-13 noise floor) while
   never over/underflowing on wild scale factors. *)
let max_exponent values =
  Array.fold_left (fun acc (v : Ec.t) -> if Ec.is_zero v then acc else Int.max acc v.Ec.e)
    min_int values

let to_doubles ~max_e values =
  Array.map
    (fun (v : Ec.t) ->
      if Ec.is_zero v then Complex.zero
      else
        let shift = v.Ec.e - max_e in
        if shift < -1000 then Complex.zero
        else
          {
            Complex.re = Float.ldexp v.Ec.c.Complex.re shift;
            im = Float.ldexp v.Ec.c.Complex.im shift;
          })
    values

let of_doubles ~max_e coeffs =
  Array.map
    (fun (c : Complex.t) ->
      if c = Complex.zero then Ec.zero else Ec.make ~c ~e:max_e)
    coeffs

let idft_extended values =
  let max_e = max_exponent values in
  if max_e = min_int then Array.map (fun _ -> Ec.zero) values
  else begin
    let doubles = to_doubles ~max_e values in
    let inverse =
      if Symref_dft.Fft.is_pow2 (Array.length doubles) then Symref_dft.Fft.inverse
      else Dft.inverse
    in
    of_doubles ~max_e (inverse doubles)
  end

(* Half-spectrum variant: [half] holds the (k/2)+1 upper-half-circle values
   of a conjugate-symmetric pass.  [Ec.conj] preserves both the exponent and
   zero-ness, so the common exponent over the half array equals the one the
   completed full array would produce, and conjugating after the ldexp shift
   is bit-identical to shifting the conjugate ([ldexp] negates exactly).
   Power-of-two [k] therefore completes the {e doubles} by conjugation and
   keeps [Fft.inverse] bit-identical to the full path; other [k] take
   [Dft.inverse_real_spectrum], which folds each conjugate pair before
   summing — half the multiply-adds, coefficients equal to a few ulp (and
   imaginary round-off residue cancelled exactly rather than approximately,
   which is why {!Naive} opts out: its garbage diagnostic reads that
   residue). *)
let idft_extended_half ~k half =
  let max_e = max_exponent half in
  if max_e = min_int then Array.make k Ec.zero
  else begin
    let doubles = to_doubles ~max_e half in
    let coeffs =
      if Symref_dft.Fft.is_pow2 k then
        Symref_dft.Fft.inverse (Dft.complete_real_spectrum k doubles)
      else Dft.inverse_real_spectrum k doubles
    in
    of_doubles ~max_e coeffs
  end

let run ?(conj_symmetry = true) ?(full_spectrum_idft = false) ?(known = [])
    ?(base = 0) (ev : Evaluator.t) ~(scale : Scaling.pair) ~k =
  if k < 1 then invalid_arg "Interp.run: k must be >= 1";
  if base < 0 then invalid_arg "Interp.run: base must be >= 0";
  Tr.span ~cat:"interp"
    ~args:
      [
        ("k", string_of_int k);
        ("base", string_of_int base);
        ("evaluator", ev.Evaluator.name);
      ]
    "interp.batch"
  @@ fun () ->
  (* Renormalise the known (denormalised) coefficients to this pass's scale
     and build the deflation polynomial of eq. 17. *)
  let deflation =
    match known with
    | [] -> None
    | _ :: _ ->
        let top = List.fold_left (fun acc (i, _) -> Int.max acc i) 0 known in
        let arr = Array.make (top + 1) Ef.zero in
        List.iter
          (fun (i, p) ->
            arr.(i) <- Scaling.normalize ~gdeg:ev.Evaluator.gdeg scale i p)
          known;
        Some (Epoly.of_coeffs arr)
  in
  (* Guard counters for this pass. *)
  let singular_retries = ref 0
  and nonfinite_retries = ref 0
  and retry_giveups = ref 0 in
  (* A guarded evaluator's zero value may mean a failed factorisation
     (singular matrix at that point — possibly injected), and a non-finite
     one arithmetic contamination.  Either way the point itself carries no
     information, so recover it from a symmetric pair of slightly rotated
     unit-circle points: the average of [P(s e^{+i delta})] and
     [P(s e^{-i delta})] cancels the first-order term of the rotation,
     leaving an [O(delta^2 P'')] bias — orders of magnitude below even the
     weakest established coefficient's validity floor, where a one-sided
     perturbation would visibly shift band-edge coefficients.  The rotation
     widens tenfold per attempt in case the neighbourhood itself is
     degenerate.  Deterministic: the rotation depends only on the attempt
     index. *)
  let max_point_retries = 3 in
  let classify (raw : Ec.t) =
    if Ec.is_zero raw then `Singular
    else
      let c = raw.Ec.c in
      if Float.is_finite c.Complex.re && Float.is_finite c.Complex.im then `Ok
      else `Nonfinite
  in
  let eval points = ev.Evaluator.eval ~f:scale.Scaling.f ~g:scale.Scaling.g points in
  let count_retry = function
    | `Singular ->
        incr singular_retries;
        Obs.incr Obs.guard_singular_retries
    | `Nonfinite ->
        incr nonfinite_retries;
        Obs.incr Obs.guard_nonfinite_retries
  in
  (* [last] is the best value seen so far: a one-sided perturbed value when
     only half a pair succeeded, else whatever the failed evaluation
     returned — a give-up keeps it rather than inventing anything. *)
  let rec recover s0 last attempt cls =
    if attempt >= max_point_retries then begin
      incr retry_giveups;
      Obs.incr Obs.guard_retry_giveups;
      last
    end
    else begin
      count_retry cls;
      let delta = 1e-9 *. (10. ** float_of_int attempt) in
      let rot = { Complex.re = Float.cos delta; im = Float.sin delta } in
      let pair = eval [| Complex.mul s0 rot; Complex.mul s0 (Complex.conj rot) |] in
      let vp = pair.(0) and vm = pair.(1) in
      match (classify vp, classify vm) with
      | `Ok, `Ok -> Ec.mul_complex (Ec.add vp vm) { Complex.re = 0.5; im = 0. }
      | `Ok, ((`Singular | `Nonfinite) as bad) -> recover s0 vp (attempt + 1) bad
      | ((`Singular | `Nonfinite) as bad), `Ok -> recover s0 vm (attempt + 1) bad
      | ((`Singular | `Nonfinite) as bad), _ -> recover s0 last (attempt + 1) bad
    end
  in
  (* One call for the whole point set, then the guard's retries in point
     order: (collected value, pre-deflation magnitude) per point. *)
  let eval_many count =
    let points = Array.init count (Uc.point k) in
    Array.mapi
      (fun j raw0 ->
        let raw =
          match classify raw0 with
          | (`Singular | `Nonfinite) as cls when ev.Evaluator.guarded ->
              recover points.(j) raw0 0 cls
          | _ ->
              (* A synthetic polynomial's zero is a true value, never a
                 failed factorisation: collect it as-is. *)
              raw0
        in
        let mag = Ec.norm raw in
        let deflated =
          match deflation with
          | None -> raw
          | Some poly -> Ec.sub raw (Epoly.eval poly (Ec.of_complex points.(j)))
        in
        let v =
          if base = 0 then deflated
          else
            (* Divide by s^base: multiply by the conjugate root w^(-j*base).
               A recovered value approximates P at the nominal point, so the
               nominal root is the right divisor. *)
            Ec.mul_complex deflated (Uc.point k (-j * base))
        in
        (v, mag))
      (eval points)
  in
  let collect pairs =
    Array.fold_left
      (fun acc (_, mag) -> if Ef.compare_mag mag acc > 0 then mag else acc)
      Ef.zero pairs
  in
  let normalized, ceiling, evaluations =
    if conj_symmetry then begin
      (* P(conj s) = conj (P s) for real circuits: evaluate only the upper
         half circle (same symmetry as Dft.complete_real_spectrum, here on
         extended-range values). *)
      let half = eval_many ((k / 2) + 1) in
      let coeffs =
        if full_spectrum_idft then
          idft_extended
            (Array.init k (fun i ->
                 if i <= k / 2 then fst half.(i) else Ec.conj (fst half.(k - i))))
        else idft_extended_half ~k (Array.map fst half)
      in
      (coeffs, collect half, (k / 2) + 1)
    end
    else begin
      let all = eval_many k in
      (idft_extended (Array.map fst all), collect all, k)
    end
  in
  Obs.add Obs.points_evaluated evaluations;
  {
    scale;
    base;
    normalized;
    points = k;
    evaluations;
    ceiling;
    singular_retries = !singular_retries;
    nonfinite_retries = !nonfinite_retries;
    retry_giveups = !retry_giveups;
  }
