(* Tests for the independent reference verification. *)

module Verify = Symref_core.Verify
module Adaptive = Symref_core.Adaptive
module Evaluator = Symref_core.Evaluator
module Nodal = Symref_mna.Nodal
module Ua741 = Symref_circuit.Ua741
module Ladder = Symref_circuit.Rc_ladder
module Ef = Symref_numeric.Extfloat

let den_evaluator circuit input output =
  Evaluator.of_nodal (Nodal.make circuit ~input ~output) ~num:false

let test_good_references_pass () =
  let ev =
    den_evaluator Ua741.circuit
      (Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      (Nodal.Out_node Ua741.output)
  in
  let result = Adaptive.run ev in
  let report = Verify.check ev result in
  Alcotest.(check bool)
    (Printf.sprintf "741 references verify (residual %.2e over %d probes)"
       report.Verify.max_relative_residual report.Verify.probes)
    true report.Verify.passed;
  Alcotest.(check bool) "several probes" true (report.Verify.probes >= 6)

let test_corrupted_references_fail () =
  let ev =
    den_evaluator (Ladder.circuit ~spread:2. 8) (Nodal.Vsrc_element "vin")
      (Nodal.Out_node Ladder.output_node)
  in
  let result = Adaptive.run ev in
  Alcotest.(check bool) "honest result passes" true
    (Verify.check ev result).Verify.passed;
  (* Corrupt one mid-band coefficient by 1%: the probe must notice. *)
  let corrupted =
    {
      result with
      Adaptive.coeffs =
        Array.mapi
          (fun i c -> if i = 4 then Ef.mul_float c 1.01 else c)
          result.Adaptive.coeffs;
    }
  in
  let report = Verify.check ev corrupted in
  Alcotest.(check bool)
    (Printf.sprintf "corruption detected (residual %.2e)"
       report.Verify.max_relative_residual)
    false report.Verify.passed

let test_ua741_corruption_detected () =
  let ev =
    den_evaluator Ua741.circuit
      (Nodal.V_diff (Ua741.input_p, Ua741.input_n))
      (Nodal.Out_node Ua741.output)
  in
  let result = Adaptive.run ev in
  Alcotest.(check bool) "untouched 741 passes" true
    (Verify.check ev result).Verify.passed;
  (* Corrupt one established coefficient by 1%: the spread between
     consecutive 741 coefficients is ~1e6, so the probe must notice the
     defect through the residual, not through magnitude alone. *)
  let target =
    let rec find i =
      if i >= Array.length result.Adaptive.established then
        Alcotest.fail "no established coefficient to corrupt"
      else if
        result.Adaptive.established.(i)
        && not (Ef.is_zero result.Adaptive.coeffs.(i))
      then i
      else find (i + 1)
    in
    find 1
  in
  let corrupted =
    {
      result with
      Adaptive.coeffs =
        Array.mapi
          (fun i c -> if i = target then Ef.mul_float c 1.01 else c)
          result.Adaptive.coeffs;
    }
  in
  let report = Verify.check ev corrupted in
  Alcotest.(check bool)
    (Printf.sprintf "741 corruption at coefficient %d detected (residual %.2e)"
       target report.Verify.max_relative_residual)
    false report.Verify.passed

let test_no_probes_fail () =
  (* A result with no productive band gives Verify nothing to probe: a
     check that ran no probes has shown nothing and must not pass. *)
  let ev =
    den_evaluator (Ladder.circuit 4) (Nodal.Vsrc_element "vin")
      (Nodal.Out_node Ladder.output_node)
  in
  let n = ev.Evaluator.order_bound in
  let barren =
    {
      Adaptive.coeffs = Array.make (n + 1) Ef.zero;
      established = Array.make (n + 1) false;
      owners = Array.make (n + 1) 0;
      gdeg = ev.Evaluator.gdeg;
      effective_order = 0;
      reports = [];
      passes = 0;
      evaluations = 0;
      max_overlap_mismatch = 0.;
      converged = true;
      diagnosis = Adaptive.clean_diagnosis;
    }
  in
  let report = Verify.check ev barren in
  Alcotest.(check int) "no probes" 0 report.Verify.probes;
  Alcotest.(check bool) "not passed" false report.Verify.passed

let suite =
  [
    ( "verify",
      [
        Alcotest.test_case "good references pass" `Quick test_good_references_pass;
        Alcotest.test_case "corrupted references fail" `Quick
          test_corrupted_references_fail;
        Alcotest.test_case "ua741: one corrupted coefficient detected" `Quick
          test_ua741_corruption_detected;
        Alcotest.test_case "no probes, no pass" `Quick test_no_probes_fail;
      ] );
  ]
