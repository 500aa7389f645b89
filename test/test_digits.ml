(* The digits oracle, first two rungs: denominators checked against exact
   forms that share nothing with the interpolation path.

   - RC ladders against [Rc_ladder.exact_denominator], the
     cancellation-free ABCD recurrence;
   - gm-C biquad cascades against the product of their sections'
     [1 + s/(Q w0) + s^2/w0^2]: each section draws no current from the one
     before it, so the nodal determinant is that product times a constant,
     and the product's coefficients are positive, free of cancellation at
     any order.

   Every established denominator coefficient, taken as a ratio p_i / p_0
   (the engine's D carries an arbitrary constant factor), must have at
   least sigma - 1 correct digits: a coefficient marked valid with fewer is
   false-valid, and none may be.  Ladders stop at 42 sections: past that
   the numerator goes through a double and the assumed noise floor marks
   deflated coefficients valid (ROADMAP items 1 and 2). *)

module Adaptive = Symref_core.Adaptive
module Reference = Symref_core.Reference
module Nodal = Symref_mna.Nodal
module Ladder = Symref_circuit.Rc_ladder
module Biquad = Symref_circuit.Biquad
module Epoly = Symref_poly.Epoly
module Ef = Symref_numeric.Extfloat
module Obs = Symref_obs.Metrics
module Snapshot = Symref_obs.Snapshot

let sigma = Adaptive.default_config.Adaptive.sigma

(* Correct decimal digits of [got] against [want] (capped at 17). *)
let digits got want =
  let err = Ef.abs (Ef.div (Ef.sub got want) want) in
  if Ef.is_zero err then 17. else Float.min 17. (-.Ef.log10_abs err)

type verdict = {
  min_digits : float;  (* over established p_i / p_0, i >= 1 *)
  false_valid : int;  (* established with fewer than sigma - 1 digits *)
  unestablished : int;  (* coefficients 0 .. order no pass established *)
  programs : int;  (* elimination programs learned ([lu.symbolic]) *)
}

(* Generate a reference with counters on, and grade its denominator. *)
let grade circuit exact =
  Obs.reset ();
  Obs.enable ();
  let r =
    Fun.protect ~finally:Obs.disable (fun () ->
        Reference.generate circuit ~input:(Nodal.Vsrc_element "vin")
          ~output:(Nodal.Out_node "out"))
  in
  let programs = Snapshot.value (Snapshot.capture ()) Obs.lu_symbolic in
  Obs.reset ();
  let den = r.Reference.den in
  let order = Epoly.degree exact in
  let p0 = den.Adaptive.coeffs.(0) and e0 = Epoly.coeff exact 0 in
  let min_digits = ref 17. and false_valid = ref 0 and unestablished = ref 0 in
  for i = 0 to order do
    if i >= Array.length den.Adaptive.coeffs || not den.Adaptive.established.(i) then
      incr unestablished
    else if i > 0 then begin
      let d =
        digits (Ef.div den.Adaptive.coeffs.(i) p0) (Ef.div (Epoly.coeff exact i) e0)
      in
      min_digits := Float.min !min_digits d;
      if d < float_of_int (sigma - 1) then incr false_valid
    end
  done;
  {
    min_digits = !min_digits;
    false_valid = !false_valid;
    unestablished = !unestablished;
    programs;
  }

let passes v = v.false_valid = 0 && v.unestablished = 0

let describe name v =
  Printf.sprintf "%s: min %.2f digits, false_valid %d, unestablished %d, %d programs"
    name v.min_digits v.false_valid v.unestablished v.programs

(* --- RC ladders ----------------------------------------------------------- *)

let ladder_verdict ~spread n =
  grade (Ladder.circuit ~spread n) (Ladder.exact_denominator ~spread n)

let test_ladders () =
  List.iter
    (fun spread ->
      List.iter
        (fun n ->
          let v = ladder_verdict ~spread n in
          let name = Printf.sprintf "ladder-%d spread %g" n spread in
          Alcotest.(check bool) (describe name v) true (passes v);
          (* A ladder's tilted scale pairs all replay its one program. *)
          Alcotest.(check int) (name ^ ": one program") 1 v.programs)
        [ 8; 16; 24; 32; 36; 40; 42 ])
    [ 1.0; 1.05; 1.1; 1.5 ]

let prop_ladders =
  QCheck2.Test.make ~name:"random ladders meet sigma - 1 digits" ~count:20
    ~print:(fun (n, spread) -> Printf.sprintf "%d sections, spread %g" n spread)
    QCheck2.Gen.(pair (int_range 2 42) (float_range 1.0 1.5))
    (fun (n, spread) ->
      let v = ladder_verdict ~spread n in
      passes v || QCheck2.Test.fail_report (describe "ladder" v))

(* --- gm-C biquad cascades ------------------------------------------------- *)

let section_product designs =
  List.fold_left
    (fun acc (d : Biquad.design) ->
      let w0 = Ef.of_float (2. *. Float.pi *. d.Biquad.f0_hz) in
      Epoly.mul acc
        (Epoly.of_coeffs
           [| Ef.one; Ef.div Ef.one (Ef.mul_float w0 d.Biquad.q); Ef.div Ef.one (Ef.mul w0 w0) |]))
    (Epoly.of_coeffs [| Ef.one |])
    designs

let biquad_verdict designs = grade (Biquad.cascade designs) (section_product designs)

(* [n] sections with pole frequencies spread geometrically over [decades]
   from 100 kHz, cycling through Q values from 0.6 to 20. *)
let spread_designs n decades =
  let qs = [| 0.6; 0.9; 1.5; 3.; 8.; 20. |] in
  List.init n (fun i ->
      let t = float_of_int i /. float_of_int (n - 1) in
      { Biquad.f0_hz = 1e5 *. (10. ** (decades *. t)); q = qs.(i mod 6); gm = 50e-6 })

let test_biquads () =
  List.iter
    (fun decades ->
      List.iter
        (fun n ->
          let v = biquad_verdict (spread_designs n decades) in
          Alcotest.(check bool)
            (describe (Printf.sprintf "biquad-%d over %g decades" n decades) v)
            true (passes v))
        [ 5; 10; 15; 20 ])
    [ 2.; 4.; 6. ]

let design_gen =
  QCheck2.Gen.(
    map3
      (fun f0 q gm -> { Biquad.f0_hz = f0; q; gm })
      (map (fun e -> 1e5 *. (10. ** e)) (float_range 0. 6.))
      (map (fun e -> 0.6 *. (10. ** e)) (float_range 0. (Float.log10 (20. /. 0.6))))
      (map (fun e -> 1e-5 *. (10. ** e)) (float_range 0. 1.3)))

let prop_biquads =
  QCheck2.Test.make ~name:"random biquad cascades meet sigma - 1 digits" ~count:20
    ~print:(fun ds ->
      String.concat "; "
        (List.map
           (fun (d : Biquad.design) ->
             Printf.sprintf "f0 %g q %g gm %g" d.Biquad.f0_hz d.Biquad.q d.Biquad.gm)
           ds))
    QCheck2.Gen.(list_size (int_range 1 20) design_gen)
    (fun designs ->
      let v = biquad_verdict designs in
      passes v || QCheck2.Test.fail_report (describe "cascade" v))

let suite =
  [
    ( "digits",
      [
        Alcotest.test_case "ladders 8-42 against the closed form" `Quick test_ladders;
        Alcotest.test_case "biquad cascades against the section product" `Quick
          test_biquads;
        QCheck_alcotest.to_alcotest prop_ladders;
        QCheck_alcotest.to_alcotest prop_biquads;
      ] );
  ]
