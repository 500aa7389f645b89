(** Small-signal noise analysis.

    Thermal noise of every resistive element (resistors and conductances,
    [4kT G] A^2/Hz as a parallel current source) and shot noise of every
    transconductance (treated as a device channel/collector current source
    with spectral density [2 q I = 2 q (gm V_T)], i.e. [2 k T gm] for a
    bipolar-like device — the standard small-signal shorthand), at 300 K, is
    propagated to the output and summed in power.  Each frequency costs one
    factorisation of the reduced nodal matrix, one forward solve and one
    adjoint solve ({!Nodal.solve_at}): a unit current from node [a] to node
    [b] reaches the output as [w_b - w_a], with [w] the adjoint potentials,
    so every source is a lookup.

    Input-referred noise divides by the signal gain from the forward
    solve. *)

type contribution = {
  element : string;
  output_density : float;  (** V^2/Hz at the output due to this source *)
}

type point = {
  freq_hz : float;
  output_density : float;     (** total, V^2/Hz *)
  input_density : float;      (** output / |H|^2, V^2/Hz *)
  contributions : contribution list;  (** descending *)
}

val at :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freq_hz:float ->
  point
(** @raise Nodal.Unsupported outside the nodal class; @raise Invalid_argument
    when the network is singular at the requested frequency (from
    {!Nodal.solve_at}). *)

val sweep :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freqs:float array ->
  point array

val integrate_rms : point array -> float
(** Total RMS output noise over the swept band (trapezoidal integration of
    the output density), volts. *)
