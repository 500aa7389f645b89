(* Tests for the Monte-Carlo tolerance analysis. *)

module Mc = Symref_mna.Monte_carlo
module Nodal = Symref_mna.Nodal
module N = Symref_circuit.Netlist
module E = Symref_circuit.Element
module Ladder = Symref_circuit.Rc_ladder
module Biquad = Symref_circuit.Biquad

let divider () =
  let b = N.Builder.create ~title:"divider" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"out" 1e3;
  N.Builder.resistor b "r2" ~a:"out" ~b:"0" 1e3;
  N.Builder.finish b

let test_deterministic () =
  let c = divider () in
  let freqs = [| 1e3 |] in
  let run () =
    Mc.gain_spread c ~input:(Nodal.Vsrc_element "vin") ~output:(Nodal.Out_node "out")
      ~freqs
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "same seed, same mean" a.(0).Mc.mean_db b.(0).Mc.mean_db;
  Alcotest.(check (float 0.)) "same std" a.(0).Mc.std_db b.(0).Mc.std_db;
  let config = { Mc.default_config with Mc.seed = 99 } in
  let c2 =
    Mc.gain_spread ~config c ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node "out") ~freqs
  in
  Alcotest.(check bool) "different seed, different mean" true
    (c2.(0).Mc.mean_db <> a.(0).Mc.mean_db)

let test_divider_spread () =
  let c = divider () in
  let freqs = [| 1e3 |] in
  let config = { Mc.default_config with Mc.samples = 400 } in
  let s =
    (Mc.gain_spread ~config c ~input:(Nodal.Vsrc_element "vin")
       ~output:(Nodal.Out_node "out") ~freqs).(0)
  in
  Alcotest.(check (float 0.01)) "nominal -6dB" (-6.0206) s.Mc.nominal_db;
  (* Two independent 10% resistors: gain spread should be well within
     +-2 dB, mean near nominal, and strictly positive std. *)
  Alcotest.(check bool) "mean near nominal" true
    (Float.abs (s.Mc.mean_db -. s.Mc.nominal_db) < 0.2);
  Alcotest.(check bool) "std positive" true (s.Mc.std_db > 0.05);
  Alcotest.(check bool) "std bounded" true (s.Mc.std_db < 1.);
  Alcotest.(check bool) "min < nominal < max" true
    (s.Mc.min_db < s.Mc.nominal_db && s.Mc.nominal_db < s.Mc.max_db)

let test_exact_elements_no_spread () =
  let c = divider () in
  let config =
    { Mc.default_config with Mc.tolerance = (fun _ -> None); samples = 20 }
  in
  let s =
    (Mc.gain_spread ~config c ~input:(Nodal.Vsrc_element "vin")
       ~output:(Nodal.Out_node "out") ~freqs:[| 1e3 |]).(0)
  in
  Alcotest.(check (float 1e-12)) "no spread" 0. s.Mc.std_db;
  Alcotest.(check (float 1e-9)) "mean = nominal" s.Mc.nominal_db s.Mc.mean_db

let test_yield () =
  (* Passband-gain spec on a biquad: a tight spec fails more samples than a
     loose one, and the loose spec passes everything. *)
  let c = Biquad.cascade [ { Biquad.f0_hz = 1e6; q = 1.5; gm = 40e-6 } ] in
  let input = Nodal.Vsrc_element "vin" and output = Nodal.Out_node "out" in
  let freqs = [| 1e6 |] in
  let config = { Mc.default_config with Mc.samples = 120 } in
  let spec tol h =
    (* |H| at f0 should be ~Q; accept within tol dB. *)
    let db = 20. *. Float.log10 (Complex.norm h.(0)) in
    let nominal = 20. *. Float.log10 1.5 in
    Float.abs (db -. nominal) <= tol
  in
  let loose = Mc.yield_ ~config c ~input ~output ~accept:(spec 20.) ~freqs in
  let tight = Mc.yield_ ~config c ~input ~output ~accept:(spec 0.15) ~freqs in
  Alcotest.(check (float 1e-9)) "loose passes all" 1. loose;
  Alcotest.(check bool)
    (Printf.sprintf "tight yield %.2f in (0,1)" tight)
    true
    (tight > 0.02 && tight < 0.98)

let test_ladder_band_edges () =
  (* Spread grows near the rolloff where sensitivity to RC is largest. *)
  let c = Ladder.circuit 3 in
  let fc = 1. /. (2. *. Float.pi *. 1e-9) in
  let freqs = [| fc /. 1e3; fc *. 3. |] in
  let config = { Mc.default_config with Mc.samples = 150 } in
  let s =
    Mc.gain_spread ~config c ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node Ladder.output_node) ~freqs
  in
  Alcotest.(check bool)
    (Printf.sprintf "std at rolloff (%.3f) > std in passband (%.3f)" s.(1).Mc.std_db
       s.(0).Mc.std_db)
    true
    (s.(1).Mc.std_db > (s.(0).Mc.std_db *. 5.))

let test_unknown_output_node () =
  (* The nominal circuit reports an unknown node as such, not as a
     singular network. *)
  Alcotest.check_raises "nominal unknown node"
    (Nodal.Unsupported "unknown node nosuch") (fun () ->
      ignore
        (Mc.gain_spread (divider ()) ~input:(Nodal.Vsrc_element "vin")
           ~output:(Nodal.Out_node "nosuch") ~freqs:[| 1e3 |]))

let suite =
  [
    ( "monte-carlo",
      [
        Alcotest.test_case "deterministic seeding" `Quick test_deterministic;
        Alcotest.test_case "divider spread" `Quick test_divider_spread;
        Alcotest.test_case "exact elements" `Quick test_exact_elements_no_spread;
        Alcotest.test_case "yield" `Quick test_yield;
        Alcotest.test_case "spread grows at rolloff" `Quick test_ladder_band_edges;
        Alcotest.test_case "unknown output node" `Quick test_unknown_output_node;
      ] );
  ]
