(* Tests for symbolic expressions, exact symbolic network functions, SDG
   truncation against numerical references, and SBG pruning. *)

module Sym = Symref_symbolic.Sym
module Sdet = Symref_symbolic.Sdet
module Sdg = Symref_symbolic.Sdg
module Sbg = Symref_symbolic.Sbg
module Nodal = Symref_mna.Nodal
module N = Symref_circuit.Netlist
module Ladder = Symref_circuit.Rc_ladder
module Ota = Symref_circuit.Ota
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Ef = Symref_numeric.Extfloat
module Cx = Symref_numeric.Cx

let check_float = Alcotest.(check (float 1e-9))

let g name v = Sym.of_symbol (Sym.symbol ~name ~value:v Sym.Conductance)
let c name v = Sym.of_symbol (Sym.symbol ~name ~value:v Sym.Capacitance)

let test_sym_algebra () =
  let g1 = g "g1" 1e-3 and g2 = g "g2" 2e-3 and c1 = c "c1" 1e-12 in
  let e = Sym.add (Sym.mul g1 g2) (Sym.mul g1 c1) in
  Alcotest.(check int) "two terms" 2 (Sym.term_count e);
  Alcotest.(check int) "max s power" 1 (Sym.max_s_power e);
  Alcotest.(check int) "s^0 terms" 1 (List.length (Sym.coefficient e 0));
  (* Like terms combine; opposite terms cancel. *)
  let z = Sym.add (Sym.mul g1 g2) (Sym.neg (Sym.mul g2 g1)) in
  Alcotest.(check bool) "cancellation" true (Sym.is_zero z);
  let doubled = Sym.add (Sym.mul g1 g2) (Sym.mul g2 g1) in
  (match doubled with
  | [ t ] -> check_float "coefficient 2" 2. t.Sym.coef
  | _ -> Alcotest.fail "expected single combined term");
  check_float "term value" (2. *. 1e-3 *. 2e-3) (Sym.term_value (List.hd doubled))

let test_sym_eval () =
  let g1 = g "g1" 2. and c1 = c "c1" 3. in
  let e = Sym.add g1 (Sym.mul c1 c1) in
  (* 2 + 9 s^2 at s = 2j: 2 - 36 *)
  let v = Sym.eval e (Cx.make 0. 2.) in
  check_float "re" (-34.) v.Complex.re;
  check_float "im" 0. v.Complex.im

let test_sym_to_string () =
  let e = Sym.add (g "ga" 1.) (Sym.mul (c "cb" 1.) (g "ga" 1.)) in
  Alcotest.(check string) "printed" "ga + cb*ga*s" (Sym.to_string e)

let test_determinant_2x2 () =
  let a = g "a" 2. and b = g "b" 3. and d = g "d" 5. in
  let m = [| [| a; b |]; [| b; d |] |] in
  let det = Sdet.determinant m in
  (* a*d - b*b *)
  Alcotest.(check int) "terms" 2 (Sym.term_count det);
  let v = Sym.eval det Complex.one in
  check_float "value" ((2. *. 5.) -. 9.) v.Complex.re

let test_determinant_guard () =
  let big = Array.make_matrix 17 17 Sym.zero in
  Alcotest.(check bool) "guard raises" true
    (try
       ignore (Sdet.determinant big);
       false
     with Invalid_argument _ -> true)

(* Exact symbolic network function vs the numerical evaluator on the same
   circuit, point by point. *)
let check_symbolic_vs_numeric name circuit input output points =
  let nf = Sdet.network_function circuit ~input ~output in
  let problem = Nodal.make circuit ~input ~output in
  List.iter
    (fun s ->
      let sym_h =
        Complex.div (Sym.eval nf.Sdet.num s) (Sym.eval nf.Sdet.den s)
      in
      let v = Nodal.eval problem s in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %s: %s vs %s" name (Cx.to_string s)
           (Cx.to_string sym_h) (Cx.to_string v.Nodal.h))
        true
        (Cx.approx_equal ~rel:1e-9 sym_h v.Nodal.h))
    points

let test_network_function_ladder () =
  check_symbolic_vs_numeric "ladder-3" (Ladder.circuit 3)
    (Nodal.Vsrc_element "vin")
    (Nodal.Out_node Ladder.output_node)
    [ Complex.zero; Cx.jomega 1e6; Cx.make 1e5 (-2e5) ]

let test_network_function_ota () =
  check_symbolic_vs_numeric "ota"
    Ota.circuit
    (Nodal.V_diff (Ota.input_p, Ota.input_n))
    (Nodal.Out_node Ota.output)
    [ Complex.zero; Cx.jomega 1e7; Cx.make (-3e6) 5e6 ]

let test_symbolic_coefficients_match_references () =
  (* The SDG premise: symbolic coefficient sums equal the references. *)
  let circuit = Ladder.circuit 3 in
  let input = Nodal.Vsrc_element "vin" in
  let output = Nodal.Out_node Ladder.output_node in
  let nf = Sdet.network_function circuit ~input ~output in
  let r = Reference.generate circuit ~input ~output in
  let den_refs = r.Reference.den.Adaptive.coeffs in
  for k = 0 to Sym.max_s_power nf.Sdet.den do
    let sym_sum =
      List.fold_left (fun acc t -> acc +. Sym.term_value t) 0.
        (Sym.coefficient nf.Sdet.den k)
    in
    let reference = Ef.to_float den_refs.(k) in
    Alcotest.(check bool)
      (Printf.sprintf "coeff %d: %g vs reference %g" k sym_sum reference)
      true
      (Float.abs (sym_sum -. reference) <= 1e-6 *. Float.abs reference)
  done

let test_sdg_truncation () =
  (* A graded ladder: term magnitudes within one coefficient span decades,
     so a 5% error budget allows real truncation (a uniform ladder's terms
     are all comparable and nothing could be dropped). *)
  let circuit = Ladder.circuit ~spread:10. 4 in
  let input = Nodal.Vsrc_element "vin" in
  let output = Nodal.Out_node Ladder.output_node in
  let nf = Sdet.network_function circuit ~input ~output in
  let r = Reference.generate circuit ~input ~output in
  let references = Array.map Ef.to_float r.Reference.den.Adaptive.coeffs in
  let simplified, report = Sdg.simplify ~epsilon:0.05 ~references nf.Sdet.den in
  Alcotest.(check bool)
    (Printf.sprintf "kept %d of %d terms" report.Sdg.kept_terms report.Sdg.total_terms)
    true
    (report.Sdg.kept_terms < report.Sdg.total_terms);
  Alcotest.(check bool) "kept something" true (report.Sdg.kept_terms > 0);
  (* Each coefficient of the truncated expression is within epsilon. *)
  List.iter
    (fun (rep : Sdg.coefficient_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "power %d error %.3g within 5%%" rep.Sdg.power
           rep.Sdg.achieved_error)
        true
        (rep.Sdg.achieved_error <= 0.05))
    report.Sdg.coefficients;
  (* The simplified response stays close to the full one at the corner. *)
  let s = Cx.jomega (1. /. (2. *. Float.pi *. 1e-9)) in
  let full = Sym.eval nf.Sdet.den s and trunc = Sym.eval simplified s in
  Alcotest.(check bool) "response preserved" true
    (Cx.approx_equal ~rel:0.15 full trunc)

let test_sdg_largest_first () =
  let terms =
    [ g "small" 1e-6; g "large" 1.; g "medium" 1e-3 ] |> List.concat
  in
  let kept, rep = Sdg.simplify_coefficient ~epsilon:1e-4 ~reference:1.001001 terms in
  Alcotest.(check int) "keeps the two largest" 2 (List.length kept);
  (match kept with
  | a :: _ -> check_float "largest first" 1. (Sym.term_value a)
  | [] -> Alcotest.fail "nothing kept");
  Alcotest.(check bool) "error within bound" true (rep.Sdg.achieved_error <= 1e-4)

let test_sdg_zero_reference () =
  let kept, rep = Sdg.simplify_coefficient ~epsilon:0.1 ~reference:0. (g "x" 1.) in
  Alcotest.(check int) "drops everything" 0 (List.length kept);
  Alcotest.(check int) "reports total" 1 rep.Sdg.total_terms

(* --- SBG --- *)

(* A filter with deliberately negligible elements. *)
let sloppy_filter () =
  let b = N.Builder.create ~title:"sloppy" () in
  N.Builder.vsrc b "vin" ~p:"in" ~m:"0" 1.;
  N.Builder.resistor b "r1" ~a:"in" ~b:"x" 1e3;
  N.Builder.capacitor b "c1" ~a:"x" ~b:"0" 1e-9;
  N.Builder.resistor b "r2" ~a:"x" ~b:"out" 1e3;
  N.Builder.capacitor b "c2" ~a:"out" ~b:"0" 1e-9;
  (* Negligible parasitics: a huge shunt resistor and a tiny capacitor. *)
  N.Builder.resistor b "rhuge" ~a:"x" ~b:"0" 1e12;
  N.Builder.capacitor b "ctiny" ~a:"out" ~b:"x" 1e-18;
  N.Builder.conductance b "gleak" ~a:"out" ~b:"0" 1e-15;
  N.Builder.finish b

let test_sbg_prunes_negligible () =
  let circuit = sloppy_filter () in
  let freqs = Symref_numeric.Grid.decades ~start:1e2 ~stop:1e8 ~per_decade:3 in
  let outcome =
    Sbg.prune circuit ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node "out") ~freqs
  in
  let removed = outcome.Sbg.removed in
  Alcotest.(check bool) "rhuge pruned" true (List.mem "rhuge" removed);
  Alcotest.(check bool) "ctiny pruned" true (List.mem "ctiny" removed);
  Alcotest.(check bool) "gleak pruned" true (List.mem "gleak" removed);
  Alcotest.(check bool) "r1 kept" false (List.mem "r1" removed);
  Alcotest.(check bool) "c1 kept" false (List.mem "c1" removed);
  Alcotest.(check bool) "error within tolerance" true (outcome.Sbg.error_db <= 0.5)

let test_sbg_keeps_everything_when_tight () =
  let circuit = Ladder.circuit 3 in
  let freqs = Symref_numeric.Grid.decades ~start:1e4 ~stop:1e9 ~per_decade:3 in
  let config =
    { Sbg.default_config with Sbg.tolerance_db = 1e-9; tolerance_deg = 1e-9 }
  in
  let outcome =
    Sbg.prune ~config circuit ~input:(Nodal.Vsrc_element "vin")
      ~output:(Nodal.Out_node Ladder.output_node) ~freqs
  in
  Alcotest.(check (list string)) "nothing removed" [] outcome.Sbg.removed

let test_sbg_ota () =
  (* On the OTA, pruning with a loose tolerance must keep the gain path
     (gm, loads) and the response within tolerance. *)
  let freqs = Symref_numeric.Grid.decades ~start:1e2 ~stop:1e9 ~per_decade:2 in
  let outcome =
    Sbg.prune Ota.circuit
      ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
      ~output:(Nodal.Out_node Ota.output) ~freqs
  in
  Alcotest.(check bool) "within tolerance" true
    (outcome.Sbg.error_db <= 0.5 && outcome.Sbg.error_deg <= 5.);
  Alcotest.(check bool) "load conductance kept" false
    (List.mem "gload" outcome.Sbg.removed)

let test_sbg_unknown_output_node () =
  (* The full circuit reports an unknown node as such, not as a singular
     network. *)
  let freqs = Symref_numeric.Grid.decades ~start:1e4 ~stop:1e9 ~per_decade:3 in
  Alcotest.check_raises "full circuit unknown node"
    (Nodal.Unsupported "unknown node nosuch") (fun () ->
      ignore
        (Sbg.prune (Ladder.circuit 3) ~input:(Nodal.Vsrc_element "vin")
           ~output:(Nodal.Out_node "nosuch") ~freqs))

let suite =
  [
    ( "sym",
      [
        Alcotest.test_case "algebra" `Quick test_sym_algebra;
        Alcotest.test_case "eval" `Quick test_sym_eval;
        Alcotest.test_case "printing" `Quick test_sym_to_string;
      ] );
    ( "sdet",
      [
        Alcotest.test_case "2x2 determinant" `Quick test_determinant_2x2;
        Alcotest.test_case "dimension guard" `Quick test_determinant_guard;
        Alcotest.test_case "ladder network function" `Quick test_network_function_ladder;
        Alcotest.test_case "ota network function" `Quick test_network_function_ota;
        Alcotest.test_case "coefficients match references" `Quick
          test_symbolic_coefficients_match_references;
      ] );
    ( "sdg",
      [
        Alcotest.test_case "truncation under eq 3" `Quick test_sdg_truncation;
        Alcotest.test_case "largest-first order" `Quick test_sdg_largest_first;
        Alcotest.test_case "zero reference" `Quick test_sdg_zero_reference;
      ] );
    ( "sbg",
      [
        Alcotest.test_case "prunes negligible elements" `Quick test_sbg_prunes_negligible;
        Alcotest.test_case "tight tolerance keeps all" `Quick
          test_sbg_keeps_everything_when_tight;
        Alcotest.test_case "ota pruning" `Quick test_sbg_ota;
        Alcotest.test_case "unknown output node" `Quick test_sbg_unknown_output_node;
      ] );
  ]
