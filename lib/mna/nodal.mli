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
    is recovered as [N(s) = H(s) * D(s)] (eq. 10). *)

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
    scale pair (at the canonical point [s = i]) and every evaluation replays
    only the numeric elimination through the batched engine
    ({!Symref_linalg.Kernel.Batch}), falling back to a full from-scratch
    factorisation for any point whose reused pivot hits the
    threshold-pivoting floor.  [~reuse:false] restores the
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

val elimination_program :
  ?f:float -> ?g:float -> t -> Symref_linalg.Kernel.program option
(** The recorded elimination program for a scale pair — [None] when [reuse]
    is off or the canonical point is singular.  Exposed for the benchmark's
    program-shape statistics (steps, slots, fill, update counts); learning
    or reusing the pattern counts under the pattern.* counters as usual. *)

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
