(** Nodal formulation for reference generation.

    This is the evaluation back-end of the interpolation engines: it
    evaluates the network-function numerator and denominator of a circuit at
    an arbitrary complex frequency [s] under the paper's frequency and
    conductance scaling (eq. 11):

    - conductance-dimensioned values (G, 1/R, gm) are multiplied by [g];
    - capacitances are multiplied by [f] (equivalently [s -> f*s]).

    Restricted to the {e nodal class} (G/R/C/VCCS/I sources) plus {e driven}
    voltage inputs, which are eliminated from the system.  Within this class
    every determinant monomial of the [s^i] coefficient contains exactly
    [gdeg - i] conductance factors, so denormalisation is the exact inverse
    [p_i = p'_i * f^(-i) * g^(i - gdeg)] — the property eq. 11 relies on.

    The denominator is [D(s) = det A(s)] (eq. 9) with [A] the reduced nodal
    matrix; [H(s)] comes from one sparse LU solve (eq. 8) and the numerator
    is recovered as [N(s) = H(s) * D(s)] (eq. 10).

    The downstream analyses take the same matrix from here rather than
    stamping their own: {!response} gives [H(j w)] over a frequency grid
    (Monte-Carlo, SBG pruning, perturbation sensitivities), and
    {!solve_at} one factorisation with its forward and adjoint potentials
    (noise, adjoint sensitivities). *)

type input =
  | Vsrc_element of string
      (** Drive through the named grounded voltage source already present in
          the netlist (it is removed and its non-ground node driven with
          its AC magnitude). *)
  | V_single of string  (** Unit voltage at the named node. *)
  | V_diff of string * string
      (** Differential drive [+1/2], [-1/2] — the paper's differential
          voltage gain convention, so that [H = vo / (vi+ - vi-)]. *)
  | V_common of string * string
      (** Both nodes driven with [+1] — the common-mode companion of
          [V_diff], for CMRR studies. *)
  | I_single of string  (** Unit AC current injected into the named node. *)

type output =
  | Out_node of string
  | Out_diff of string * string  (** [v(first) - v(second)]. *)

type t
(** A prepared transfer-function evaluation problem. *)

exception Unsupported of string
(** Raised by {!make} when the circuit leaves the nodal class (inductors,
    VCVS/CCCS/CCVS, floating or extra voltage sources) or refers to unknown
    nodes/elements. *)

val make :
  ?reuse:bool ->
  Symref_circuit.Netlist.t ->
  input:input ->
  output:output ->
  t
(** [reuse] (default [true]) enables the symbolic/numeric factorisation
    split: the Markowitz ordering of the reduced matrix is learned once per
    circuit, at the initial scale pair [(1/mean C, 1/mean G)] and the
    canonical point [s = i], and every evaluation replays only the numeric
    elimination through the batched engine
    ({!Symref_linalg.Kernel.Batch}), falling back to a full from-scratch
    factorisation for any point whose reused pivot hits the
    threshold-pivoting floor.  Another scale pair keeps that circuit
    program when one replay at [s = i] with the pair's values clears the
    threshold floor with a non-zero determinant, and learns its own
    otherwise; a circuit with no capacitor or no conductance learns one
    per scale pair.  The choice depends only on the problem and the pair,
    so the values never depend on the order of the calls.  [~reuse:false] restores the
    factor-from-scratch-per-point behaviour (benchmark baseline).
    Evaluation is thread-safe either way: concurrent calls on one problem
    take turns. *)

val dimension : t -> int
(** Order of the reduced nodal matrix. *)

val order_bound : t -> int
(** Upper estimate on the polynomial order: [min (capacitors, dimension)] —
    the [K >= n+1] estimate the interpolation needs (paper §2.1). *)

val den_gdeg : t -> int
(** Conductance-homogeneity degree of the denominator. *)

val num_gdeg : t -> int
(** Conductance-homogeneity degree of the numerator. *)

type value = {
  den : Symref_numeric.Extcomplex.t;
      (** [D(s)], extended range; exactly zero when the evaluation point is a
          pole of the scaled network *)
  num : Symref_numeric.Extcomplex.t;
      (** [N(s)]: [H(s) * D(s)] (eq. 10) at regular points, Cramer
          determinants at a pole — so numerator interpolation survives scale
          factors that park a pole on the unit circle *)
  h : Complex.t;  (** [H(s)]; meaningless when [singular] *)
  singular : bool;  (** the scaled matrix was singular at this point *)
}

val eval : ?f:float -> ?g:float -> t -> Complex.t -> value
(** [eval ~f ~g t s] evaluates at the point [s] with frequency scale [f] and
    conductance scale [g] (both default [1.]): a batch of one through
    {!eval_batch}. *)

val eval_batch : ?f:float -> ?g:float -> t -> Complex.t array -> value array
(** [eval_batch ~f ~g t points] evaluates every point through the batched
    structure-of-arrays engine ({!Symref_linalg.Kernel.Batch}): the
    elimination program is decoded once and each instruction loops over
    the contiguous points, instead of replaying the whole program per
    point.  Result [i] is bit-for-bit the value [eval ~f ~g t points.(i)]
    produces, including threshold-floor ejects, singular points and armed
    [sparse.singular] fault plans: the hook fires once per point in point
    order, and a point it hits — or one the threshold floor ejects — is
    refactorised from scratch right there, before the next point fires.
    Batch-served points count [lu.refactor]; ejected points count
    [kernel.batch_ejects] once each. *)

val response :
  Symref_circuit.Netlist.t ->
  input:input ->
  output:output ->
  float array ->
  Complex.t array option
(** [response circuit ~input ~output freqs] is [H(j 2 pi f)] at each
    frequency in Hz, one {!eval_batch} call on a fresh {!make}; [None] when
    any point is singular.
    @raise Unsupported outside the nodal class. *)

type solution = {
  transfer : Complex.t;  (** [H(s)] *)
  forward : Complex.t array;
      (** node potentials by original node id: the drive at a driven
          node, 0 at ground *)
  adjoint : Complex.t array;
      (** adjoint potentials by original node id, [A^T w = e_out_p -
          e_out_m]: 0 at ground and at driven nodes.  A unit current from
          node [a] to node [b] reaches the output as [adjoint.(b) -
          adjoint.(a)]. *)
}

val solve_at : t -> Complex.t -> solution
(** [solve_at t s] factors the unscaled reduced matrix at [s] once, with
    {!Symref_linalg.Sparse.factor}, and solves it forward for the node
    potentials and transposed, with the output selector, for the adjoint
    potentials: one factorisation and two solves for noise and exact
    sensitivities.  Learns no elimination program.
    @raise Invalid_argument when the matrix is singular at [s]. *)

val elimination_program :
  ?f:float -> ?g:float -> t -> Symref_linalg.Kernel.program option
(** The recorded elimination program that serves a scale pair (see
    {!make}: the circuit's own program, or the pair's when the circuit's
    fails its replay) — [None] when [reuse] is off or the canonical point
    is singular.  It is the program the pair's batch workspace replays
    ({!Symref_linalg.Kernel.Batch.program}).  Exposed for the benchmark's
    program-shape statistics (steps, slots, fill, update counts) and the
    tests' bounds checks; learning or reusing the pattern counts under the
    [nodal.pattern_*] counters as usual. *)

val mean_conductance : t -> float
val mean_capacitance : t -> float
(** Heuristic inputs for the first interpolation (paper §3.2).
    @raise Invalid_argument when the circuit has none. *)

type role = Ground | Driven of float | Free of int

type plan = {
  reduced_circuit : Symref_circuit.Netlist.t;
      (** circuit with the input voltage source removed *)
  roles : role array;  (** indexed by original node id *)
  plan_dim : int;
  plan_out_p : int option;  (** reduced index of the positive output *)
  plan_out_m : int option;
  plan_injections : (int * float) list;  (** reduced row -> injected current *)
}

val plan : t -> plan
(** The reduction the evaluator applies, exposed so other formulations
    (e.g. exact symbolic expansion) can build the {e same} matrix and get
    coefficients that line up with the numerical references. *)
