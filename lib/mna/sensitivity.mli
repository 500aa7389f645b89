(** Network-function sensitivities — a primary application of symbolic
    analysis (and of the numerical references that drive its
    simplification): how much each circuit parameter moves the transfer
    function.

    Computes normalised sensitivities

    [S_x^H(s) = (x / H) * dH/dx]

    by central-difference perturbation of the element value with two nodal
    solves per element, at any point of the [j*omega] axis.  Magnitude
    sensitivity in dB-per-percent and phase sensitivity are derived views:
    [d|H|dB = 20 / ln 10 * Re S * dx/x * 100]. *)

type entry = {
  element : string;
  value : float;              (** design-point value *)
  s : Complex.t;              (** normalised sensitivity [S_x^H] *)
  mag_db_per_percent : float; (** magnitude shift for a +1% value change *)
  phase_deg_per_percent : float;
}

val at :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freq_hz:float ->
  entry list
(** Sensitivities of every element with a perturbable value, sorted by
    descending [|s|], from a relative perturbation of [1e-4] each way
    ({!Nodal.response} at the one frequency).  Elements whose perturbed
    network is singular are skipped.
    @raise Nodal.Unsupported on circuits outside the nodal class. *)

val worst_case :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freqs:float array ->
  (string * float) list
(** Per element, the maximum [|S|] over the frequency grid — the ranking a
    designer (or an SBG pruner) reads to find what matters.  Sorted
    descending. *)

val adjoint_at :
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freq_hz:float ->
  entry list
(** The adjoint (transpose) network method: {e exact} sensitivities of every
    element from one factorisation and two solves total — the forward and
    adjoint potentials of {!Nodal.solve_at} — instead of two solves per
    element.  For an admittance [y] between nodes [(a, b)] (or a VCCS with
    output [(p, m)] and control [(cp, cm)]),
    [dH/dy = -(w_a - w_b) (v_cp' - v_cm')] with [w] the adjoint solution.
    Results match {!at} to the perturbation's own accuracy; independent
    sources carry no sensitivity here.  Sorted by descending [|s|].
    @raise Invalid_argument when the network is singular at [freq_hz]
    (from {!Nodal.solve_at}) or [H] is zero there. *)
