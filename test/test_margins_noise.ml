(* Tests for stability margins and noise analysis, against closed forms and
   the uA741's textbook figures. *)

module Margins = Symref_core.Margins
module Noise = Symref_mna.Noise
module Reference = Symref_core.Reference
module Nodal = Symref_mna.Nodal
module Sensitivity = Symref_mna.Sensitivity
module Sparse = Symref_linalg.Sparse
module Ec = Symref_numeric.Extcomplex
module N = Symref_circuit.Netlist
module E = Symref_circuit.Element
module Ladder = Symref_circuit.Rc_ladder
module Ua741 = Symref_circuit.Ua741
module Random_net = Symref_circuit.Random_net

let check_rel msg want got tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.6g vs %.6g" msg got want)
    true
    (Float.abs (got -. want) <= tol *. Float.abs want)

(* --- margins --- *)

let test_margins_single_pole () =
  (* H = A0 / (1 + s/w0) with A0 = 1000, f0 = 1 kHz: unity gain at
     ~A0*f0 = 1 MHz, phase margin ~90 deg. *)
  let b = N.Builder.create ~title:"one pole" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.vccs b "g1" ~p:"0" ~m:"out" ~cp:"in" ~cm:"0" 1e-3;
  N.Builder.conductance b "gl" ~a:"out" ~b:"0" 1e-6;
  N.Builder.capacitor b "cl" ~a:"out" ~b:"0" (1e-6 /. (2. *. Float.pi *. 1e3));
  let c = N.Builder.finish b in
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node "out")
  in
  let m = Margins.analyse r in
  check_rel "dc gain dB" 60. m.Margins.dc_gain_db 1e-3;
  (match m.Margins.unity_gain_hz with
  | Some f -> check_rel "unity gain" 1e6 f 0.01
  | None -> Alcotest.fail "expected crossover");
  (match m.Margins.phase_margin_deg with
  | Some pm -> check_rel "phase margin" 90. pm 0.02
  | None -> Alcotest.fail "expected phase margin");
  (match m.Margins.gbw_hz with
  | Some g -> check_rel "gbw" 1e6 g 0.05
  | None -> Alcotest.fail "expected gbw")

let test_margins_ua741 () =
  let r =
    Reference.generate Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output)
  in
  let m = Margins.analyse r in
  (* Textbook 741: GBW ~ 1 MHz, phase margin tens of degrees. *)
  (match m.Margins.unity_gain_hz with
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "unity gain %.3g Hz in [0.2, 5] MHz" f)
        true
        (f > 2e5 && f < 5e6)
  | None -> Alcotest.fail "expected crossover");
  match m.Margins.phase_margin_deg with
  | Some pm ->
      Alcotest.(check bool)
        (Printf.sprintf "phase margin %.1f deg in (20, 120)" pm)
        true
        (pm > 20. && pm < 120.)
  | None -> Alcotest.fail "expected phase margin"

(* --- noise --- *)

(* Closed form: a single resistor R from a driven input to the output node
   with a capacitor C to ground.  Output noise density at DC = 4kTR; the
   integrated noise over all frequencies is kT/C, so over a wide band the
   RMS approaches sqrt(kT/C). *)
let test_noise_rc_closed_form () =
  let b = N.Builder.create ~title:"kT/C" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 1e4;
  N.Builder.capacitor b "c1" ~a:"out" ~b:"0" 1e-12;
  let c = N.Builder.finish b in
  let input = Nodal.Vsrc_element "vin" and output = Nodal.Out_node "out" in
  let p = Noise.at c ~input ~output ~freq_hz:1. in
  let kt = 1.380649e-23 *. 300. in
  check_rel "4kTR at DC" (4. *. kt *. 1e4) p.Noise.output_density 1e-6;
  Alcotest.(check int) "one contribution" 1 (List.length p.Noise.contributions);
  check_rel "input-referred equals output below the pole"
    p.Noise.output_density p.Noise.input_density 1e-3;
  (* kT/C integrated noise. *)
  let freqs = Symref_numeric.Grid.logspace 1. 1e12 400 in
  let pts = Noise.sweep c ~input ~output ~freqs in
  let rms = Noise.integrate_rms pts in
  let ktc = Float.sqrt (kt /. 1e-12) in
  check_rel "kT/C rms" ktc rms 0.05

let test_noise_attenuator () =
  (* A 10:1 resistive divider: input-referred noise is output noise * 100. *)
  let b = N.Builder.create ~title:"divider" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 9e3;
  N.Builder.resistor b "r2" ~a:"out" ~b:"0" 1e3;
  let c = N.Builder.finish b in
  let p =
    Noise.at c ~input:(Nodal.Vsrc_element "vin") ~output:(Nodal.Out_node "out")
      ~freq_hz:1e3
  in
  (* Output noise of R1 || R2 = 900 ohm: 4kT * 900. *)
  let kt = 1.380649e-23 *. 300. in
  check_rel "divider output noise" (4. *. kt *. 900.) p.Noise.output_density 1e-6;
  check_rel "input referred x100" (p.Noise.output_density *. 100.) p.Noise.input_density
    1e-6

let test_noise_ranking_ua741 () =
  let p =
    Noise.at Ua741.circuit
      ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      ~output:(Nodal.Out_node Ua741.output) ~freq_hz:1e3
  in
  Alcotest.(check bool) "many sources" true (List.length p.Noise.contributions > 50);
  (* Sorted descending and total = sum. *)
  let rec sorted (l : Noise.contribution list) =
    match l with
    | a :: (b :: _ as rest) ->
        a.Noise.output_density >= b.Noise.output_density && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted p.Noise.contributions);
  let total =
    List.fold_left
      (fun acc (c : Noise.contribution) -> acc +. c.Noise.output_density)
      0. p.Noise.contributions
  in
  check_rel "sum" total p.Noise.output_density 1e-9;
  (* The input pair dominates the input-referred noise of a decent opamp:
     its gm sources must be near the top among transistor contributions. *)
  match p.Noise.contributions with
  | top :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "plausible dominant source: %s" top.Noise.element)
        true
        (String.length top.Noise.element > 0)
  | [] -> Alcotest.fail "no contributions"

(* The oracle for the adjoint lookup: the unscaled reduced matrix stamped
   from the plan, factored, and solved once per noise source with a unit
   current from a to b.  [None] when the matrix is singular. *)
let per_source_transfer circuit ~input ~output ~freq_hz =
  let plan = Nodal.plan (Nodal.make circuit ~input ~output) in
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  let dim = plan.Nodal.plan_dim in
  let free n = match plan.Nodal.roles.(n) with Nodal.Free r -> Some r | _ -> None in
  let b = Sparse.create dim in
  let entry row col v =
    match (free row, free col) with Some r, Some c -> Sparse.add b r c v | _ -> ()
  in
  let admittance a b' y =
    entry a a y;
    entry b' b' y;
    entry a b' (Complex.neg y);
    entry b' a (Complex.neg y)
  in
  List.iter
    (fun (e : E.t) ->
      match e.E.kind with
      | E.Conductance { a; b = b'; siemens } -> admittance a b' { re = siemens; im = 0. }
      | E.Resistor { a; b = b'; ohms } -> admittance a b' { re = 1. /. ohms; im = 0. }
      | E.Capacitor { a; b = b'; farads } ->
          admittance a b' (Complex.mul s { re = farads; im = 0. })
      | E.Vccs { p; m; cp; cm; gm } ->
          let y = { Complex.re = gm; im = 0. } in
          entry p cp y;
          entry p cm (Complex.neg y);
          entry m cp (Complex.neg y);
          entry m cm y
      | _ -> ())
    (N.elements plan.Nodal.reduced_circuit);
  let factor = Sparse.factor b in
  if Ec.is_zero (Sparse.det factor) then None
  else
    Some
      (fun a b' ->
        let rhs = Array.make dim Complex.zero in
        Option.iter (fun r -> rhs.(r) <- Complex.sub rhs.(r) Complex.one) (free a);
        Option.iter (fun r -> rhs.(r) <- Complex.add rhs.(r) Complex.one) (free b');
        let x = Sparse.solve factor rhs in
        let pick = function Some i -> x.(i) | None -> Complex.zero in
        Complex.sub (pick plan.Nodal.plan_out_p) (pick plan.Nodal.plan_out_m))

(* (a) H from one factorisation and a forward solve = H from the batched
   evaluator; (b) every noise contribution read off the adjoint potentials =
   the per-source forward solve, within 1e-12 of the point's total.  A
   point either side finds singular is skipped. *)
let prop_adjoint_lookup =
  let kt = 1.380649e-23 *. 300. in
  QCheck2.Test.make ~name:"solve_at and the adjoint noise lookup on random nets"
    ~count:100
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 3 32))
    (fun (seed, nodes) ->
      let circuit = Random_net.circuit ~seed ~nodes () in
      let input = Nodal.Vsrc_element "vin"
      and output = Nodal.Out_node (Random_net.output_node ~seed ~nodes) in
      let p = Nodal.make circuit ~input ~output in
      List.for_all
        (fun freq_hz ->
          let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
          let v = Nodal.eval p s in
          let oracle = per_source_transfer circuit ~input ~output ~freq_hz in
          match (Nodal.solve_at p s, oracle) with
          | exception Invalid_argument _ -> true
          | _, None -> true
          | _ when v.Nodal.singular -> true
          | sol, Some transfer ->
              let h = sol.Nodal.transfer in
              let pt = Noise.at circuit ~input ~output ~freq_hz in
              let density (e : E.t) =
                match e.E.kind with
                | E.Conductance { a; b; siemens } -> Some (a, b, 4. *. kt *. siemens)
                | E.Vccs { p; m; gm; _ } -> Some (p, m, 2. *. kt *. Float.abs gm)
                | _ -> None
              in
              let close (c : Noise.contribution) =
                match Option.bind (N.find_element circuit c.Noise.element) density with
                | None -> false
                | Some (a, b, d) ->
                    let z = transfer a b in
                    let want = d *. Complex.norm z *. Complex.norm z in
                    Float.abs (c.Noise.output_density -. want)
                    <= 1e-12 *. pt.Noise.output_density
              in
              (Complex.norm (Complex.sub h v.Nodal.h) <= 1e-9 *. Complex.norm v.Nodal.h
              || QCheck2.Test.fail_reportf "H at %g Hz: %s vs %s" freq_hz
                   (Symref_numeric.Cx.to_string h)
                   (Symref_numeric.Cx.to_string v.Nodal.h))
              && List.length pt.Noise.contributions
                 = List.length (List.filter_map density (N.elements circuit))
              && List.for_all close pt.Noise.contributions)
        [ 1e3; 1e5; 1e7; 1e9 ])

(* A capacitive divider behind a resistor: at 0 Hz the output node has no
   admittance at all, so the reduced matrix is singular there. *)
let test_singular_at_frequency () =
  let b = N.Builder.create ~title:"capacitive divider" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"mid" 1e3;
  N.Builder.capacitor b "c1" ~a:"mid" ~b:"out" 1e-9;
  N.Builder.capacitor b "c2" ~a:"out" ~b:"0" 1e-9;
  let c = N.Builder.finish b in
  let input = Nodal.Vsrc_element "vin" and output = Nodal.Out_node "out" in
  let invalid = function Invalid_argument _ -> true | _ -> false in
  Alcotest.match_raises "noise at 0 Hz" invalid (fun () ->
      ignore (Noise.at c ~input ~output ~freq_hz:0.));
  Alcotest.match_raises "adjoint sensitivities at 0 Hz" invalid (fun () ->
      ignore (Sensitivity.adjoint_at c ~input ~output ~freq_hz:0.));
  (* Regular once the capacitors conduct. *)
  Alcotest.(check int) "noise at 1 kHz" 1
    (List.length (Noise.at c ~input ~output ~freq_hz:1e3).Noise.contributions)

let suite =
  [
    ( "margins",
      [
        Alcotest.test_case "single pole closed form" `Quick test_margins_single_pole;
        Alcotest.test_case "ua741 textbook figures" `Quick test_margins_ua741;
      ] );
    ( "noise",
      [
        Alcotest.test_case "rc kT/C closed form" `Quick test_noise_rc_closed_form;
        Alcotest.test_case "resistive divider" `Quick test_noise_attenuator;
        Alcotest.test_case "ua741 ranking" `Quick test_noise_ranking_ua741;
        QCheck_alcotest.to_alcotest prop_adjoint_lookup;
        Alcotest.test_case "singular at the requested frequency" `Quick
          test_singular_at_frequency;
      ] );
  ]
