(* Simplification During Generation (paper §1, eq. 3): generate the symbolic
   terms of a small OTA's network function largest-first and stop when the
   numerical reference says the truncation error is inside budget.

     dune exec examples/sdg_demo.exe
*)

module Ota = Symref_circuit.Ota
module Nodal = Symref_mna.Nodal
module Sdet = Symref_symbolic.Sdet
module Sdg = Symref_symbolic.Sdg
module Sym = Symref_symbolic.Sym
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Ef = Symref_numeric.Extfloat

let () =
  let input = Nodal.V_diff (Ota.input_p, Ota.input_n) in
  let output = Nodal.Out_node Ota.output in

  (* Exact symbolic network function (viable on this small circuit). *)
  let nf = Sdet.network_function Ota.circuit ~input ~output in
  Printf.printf "full symbolic expression: %d numerator terms, %d denominator terms\n\n"
    (Sym.term_count nf.Sdet.num) (Sym.term_count nf.Sdet.den);

  (* Numerical references from the adaptive algorithm: the error control. *)
  let r = Reference.generate Ota.circuit ~input ~output in
  let references which = Array.map Ef.to_float which.Adaptive.coeffs in

  print_endline "SDG truncation of the full OTA expression (VCCS network):";
  List.iter
    (fun epsilon ->
      let den, den_rep =
        Sdg.simplify ~epsilon ~references:(references r.Reference.den) nf.Sdet.den
      in
      let num, num_rep =
        Sdg.simplify ~epsilon ~references:(references r.Reference.num) nf.Sdet.num
      in
      Printf.printf "epsilon = %-5g:  den %3d -> %-3d terms,  num %3d -> %-3d terms\n"
        epsilon den_rep.Sdg.total_terms den_rep.Sdg.kept_terms num_rep.Sdg.total_terms
        num_rep.Sdg.kept_terms;
      if epsilon = 0.25 then begin
        print_endline "\n  per-coefficient detail at epsilon = 0.25 (denominator):";
        List.iter
          (fun (c : Sdg.coefficient_report) ->
            Printf.printf
              "    s^%d: %d of %d terms, reference %.4g, achieved error %.2g\n"
              c.Sdg.power c.Sdg.kept_terms c.Sdg.total_terms c.Sdg.reference
              c.Sdg.achieved_error)
          den_rep.Sdg.coefficients;
        print_endline "\n  simplified denominator:";
        Printf.printf "    %s\n" (Sym.to_string den);
        print_endline "\n  simplified numerator:";
        Printf.printf "    %s\n" (Sym.to_string num);
        (* Nested-form compaction for human reading (paper intro: "formula
           interpretation by human designers"). *)
        let module Nested = Symref_symbolic.Nested in
        let nested = Nested.nest num in
        Printf.printf
          "\n  numerator in nested form (%d ops vs %d expanded):\n    %s\n\n"
          (Nested.operations nested)
          (Nested.expanded_operations num)
          (Nested.to_string nested)
      end)
    [ 0.01; 0.05; 0.25 ]
