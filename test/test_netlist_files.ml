(* The shipped sample netlists must parse and analyse end to end. *)

module Parser = Symref_spice.Parser
module N = Symref_circuit.Netlist
module Transform = Symref_circuit.Transform
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Reference = Symref_core.Reference
module Poles = Symref_core.Poles

let path = Example_netlists.path

let load name = Parser.parse_file (path name)

let test_rc_filter () =
  let c = load "rc_filter.cir" in
  Alcotest.(check int) "elements" 7 (N.element_count c);
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "v1") ~output:(Nodal.Out_node "out")
  in
  Alcotest.(check (float 1e-6)) "dc gain 1" 1. (Reference.dc_gain r);
  Alcotest.(check int) "third order" 3
    r.Reference.den.Symref_core.Adaptive.effective_order

let test_two_stage_bjt () =
  let c = load "two_stage_bjt.cir" in
  let h = (Ac.transfer c ~out_p:"c2" [| 1e4 |]).(0) in
  let db = 20. *. Float.log10 (Complex.norm h) in
  Alcotest.(check bool)
    (Printf.sprintf "midband gain %.1f dB in (50, 65)" db)
    true
    (db > 50. && db < 65.)

let test_sallen_key () =
  let c = load "sallen_key.cir" in
  Alcotest.(check bool) "nodal after source removal" true
    (N.is_nodal_class (N.remove_element c "v1"));
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "v1") ~output:(Nodal.Out_node "out")
  in
  (* Unity DC gain through two unity-feedback sections (within the finite
     opamp gain ~60 dB). *)
  Alcotest.(check bool)
    (Printf.sprintf "dc gain ~1 (%.4f)" (Reference.dc_gain r))
    true
    (Float.abs (Reference.dc_gain r -. 1.) < 0.02);
  (* Passband flat, stopband falling: |H| at 1 kHz >> |H| at 1 MHz. *)
  let mag f = Complex.norm (Reference.eval r { Complex.re = 0.; im = 2. *. Float.pi *. f }) in
  Alcotest.(check bool) "lowpass rolloff" true (mag 1e3 > 100. *. mag 1e6)

let test_crossover () =
  let c = Transform.inductors_to_gyrators (load "crossover.cir") in
  let r =
    Reference.generate c ~input:(Nodal.Vsrc_element "v1") ~output:(Nodal.Out_node "w1")
  in
  let a = Poles.analyse r in
  Alcotest.(check bool) "stable" true a.Poles.stable;
  (* Crossover frequency 1/(2 pi sqrt(LC)) ~ 1418 Hz. *)
  let f0 = 1. /. (2. *. Float.pi *. Float.sqrt (0.9e-3 *. 14e-6)) in
  match a.Poles.resonances with
  | r1 :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "resonance %.0f ~ %.0f Hz" r1.Poles.freq_hz f0)
        true
        (Float.abs (r1.Poles.freq_hz -. f0) < 0.02 *. f0)
  | [] -> Alcotest.fail "expected resonances"

let test_ua741_file () =
  let c = load "ua741.cir" in
  (* Written-out 741 with its sources: the AC gain must match the library
     circuit's. *)
  let h = (Ac.transfer c ~out_p:"out" [| 10. |]).(0) in
  let db = 20. *. Float.log10 (Complex.norm h) in
  Alcotest.(check bool)
    (Printf.sprintf "gain at 10 Hz %.1f dB in (85, 100)" db)
    true
    (db > 85. && db < 100.)

let suite =
  [
    ( "netlist-files",
      [
        Alcotest.test_case "rc_filter.cir" `Quick test_rc_filter;
        Alcotest.test_case "two_stage_bjt.cir" `Quick test_two_stage_bjt;
        Alcotest.test_case "sallen_key.cir" `Quick test_sallen_key;
        Alcotest.test_case "crossover.cir" `Quick test_crossover;
        Alcotest.test_case "ua741.cir" `Quick test_ua741_file;
      ] );
  ]
