let () =
  Alcotest.run "symref"
    (Test_extfloat.suite @ Test_stats_grid.suite @ Test_poly.suite
   @ Test_dft.suite @ Test_linalg.suite @ Test_circuit.suite @ Test_mna.suite
   @ Test_core.suite @ Test_spice.suite @ Test_symbolic.suite
   @ Test_roots.suite @ Test_random_net.suite @ Test_sensitivity.suite @ Test_transform.suite @ Test_sag.suite @ Test_margins_noise.suite @ Test_monte_carlo.suite @ Test_report.suite @ Test_paper_shape.suite @ Test_two_stage.suite @ Test_properties.suite @ Test_verify.suite @ Test_netlist_files.suite @ Test_nested.suite @ Test_obs.suite @ Test_json.suite @ Test_serve.suite @ Test_fault.suite
   @ Test_batch.suite @ Test_lu_oracle.suite @ Test_digits.suite @ Test_simplify.suite
   @ Test_kernel_oracle.suite)
