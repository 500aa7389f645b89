let input_p = "inp"
let input_n = "inn"
let output = "out"

(* Process sketch: vertical NPN (fast) and lateral/substrate PNP (slow, large
   parasitics), as in the 741's vintage process.  [ccs = 0.] for devices whose
   collector sits at an AC-ground supply rail. *)
let npn ?(ccs = 1.5e-12) ic =
  Devices.bjt_of_bias ~beta:200. ~va:100. ~tf:400e-12 ~cmu:1.5e-12 ~rb:200. ~ccs ~ic ()

let pnp ?(ccs = 3e-12) ic =
  Devices.bjt_of_bias ~beta:50. ~va:60. ~tf:20e-9 ~cmu:2e-12 ~rb:300. ~ccs ~ic ()

let circuit =
  let module B = Netlist.Builder in
  let b = B.create ~title:"uA741 (small-signal, 24 BJT)" () in
  let bjt = Devices.add_bjt b in
  (* --- Input stage: emitter followers into common-base PNPs, mirror load. *)
  bjt "q1" ~c:"n8" ~b:input_p ~e:"n1" (npn 9.5e-6);
  bjt "q2" ~c:"n8" ~b:input_n ~e:"n2" (npn 9.5e-6);
  bjt "q3" ~c:"n5" ~b:"n9" ~e:"n1" (pnp 9.5e-6);
  bjt "q4" ~c:"n10" ~b:"n9" ~e:"n2" (pnp 9.5e-6);
  bjt "q5" ~c:"n5" ~b:"n6" ~e:"n3" (npn 9.5e-6);
  bjt "q6" ~c:"n10" ~b:"n6" ~e:"n4" (npn 9.5e-6);
  bjt "q7" ~c:"0" ~b:"n5" ~e:"n6" (npn ~ccs:0. 10e-6);
  B.resistor b "r1" ~a:"n3" ~b:"0" 1e3;
  B.resistor b "r2" ~a:"n4" ~b:"0" 1e3;
  B.resistor b "r3" ~a:"n6" ~b:"0" 50e3;
  (* --- Bias chain: Q8/Q9 mirror, Q10/Q11 Widlar, Q12/Q13 PNP mirror. *)
  bjt "q8" ~c:"n8" ~b:"n8" ~e:"0" (pnp 19e-6);
  bjt "q9" ~c:"n9" ~b:"n8" ~e:"0" (pnp 19e-6);
  bjt "q10" ~c:"n9" ~b:"n11" ~e:"n12" (npn 19e-6);
  bjt "q11" ~c:"n11" ~b:"n11" ~e:"0" (npn 730e-6);
  bjt "q12" ~c:"n13" ~b:"n13" ~e:"0" (pnp 730e-6);
  bjt "q13" ~c:"n14" ~b:"n13" ~e:"0" (pnp 550e-6);
  B.resistor b "r4" ~a:"n12" ~b:"0" 5e3;
  B.resistor b "r5" ~a:"n11" ~b:"n13" 39e3;
  (* --- Gain stage: Darlington Q16/Q17 with the 30 pF Miller capacitor. *)
  bjt "q16" ~c:"0" ~b:"n10" ~e:"n15" (npn ~ccs:0. 16e-6);
  bjt "q17" ~c:"n14" ~b:"n15" ~e:"n16" (npn 550e-6);
  B.resistor b "r9" ~a:"n15" ~b:"0" 50e3;
  B.resistor b "r8" ~a:"n16" ~b:"0" 100.;
  B.capacitor b "cc" ~a:"n10" ~b:"n14" 30e-12;
  (* --- Vbe multiplier Q18 (+ series diode Q19) between drive and output
         bases. *)
  bjt "q18" ~c:"n14" ~b:"n17" ~e:"n18" (npn 165e-6);
  B.resistor b "r11" ~a:"n14" ~b:"n17" 7.5e3;
  B.resistor b "r10" ~a:"n17" ~b:"n18" 40e3;
  bjt "q19" ~c:"n18" ~b:"n18" ~e:"n19" (npn 165e-6);
  (* --- Class-AB output pair with emitter resistors. *)
  bjt "q14" ~c:"0" ~b:"n14" ~e:"n20" (npn ~ccs:0. 150e-6);
  bjt "q20" ~c:"0" ~b:"n19" ~e:"n21" (pnp ~ccs:0. 150e-6);
  B.resistor b "r6" ~a:"n20" ~b:output 27.;
  B.resistor b "r7" ~a:"n21" ~b:output 22.;
  (* --- Protection devices: off at DC, biased at 10 nA so that their
         parasitics remain in the netlist without loading the signal path. *)
  bjt "q15" ~c:"n14" ~b:"n20" ~e:output (npn 10e-9);
  bjt "q21" ~c:"n22" ~b:output ~e:"n21" (pnp 10e-9);
  bjt "q22" ~c:"n10" ~b:"n22" ~e:"0" (npn 10e-9);
  bjt "q23" ~c:"0" ~b:"n22" ~e:"n10" (pnp ~ccs:0. 10e-9);
  bjt "q24" ~c:"n22" ~b:"n22" ~e:"0" (npn 10e-9);
  (* --- Load. *)
  B.resistor b "rload" ~a:output ~b:"0" 2e3;
  B.capacitor b "cload" ~a:output ~b:"0" 100e-12;
  B.finish b

let () = assert (Netlist.is_connected circuit)
