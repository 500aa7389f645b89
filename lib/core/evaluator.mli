(** The evaluation-side interface of the interpolation engines.

    An evaluator computes one scaled network-function polynomial
    [P'(s) = sum_i p_i f^i g^(gdeg - i) s^i] at a set of complex points —
    in practice by assembling the scaled nodal matrix and running a sparse
    LU per point (eqs. 7-10), but the engines only see this record, which
    keeps them testable against synthetic polynomials with known
    coefficients. *)

type t = {
  eval : f:float -> g:float -> Complex.t array -> Symref_numeric.Extcomplex.t array;
      (** Values of the scaled polynomial at a point set, in point order.
          The point set is the unit of work: an interpolation pass, a
          guard-retry pair or a verification probe set is one call. *)
  gdeg : int;
      (** Conductance-homogeneity degree: the [s^i] coefficient carries
          [g^(gdeg - i)] under conductance scaling (eq. 11). *)
  order_bound : int;
      (** Upper estimate of the polynomial order (number of capacitors
          capped by the matrix dimension, paper §2.1). *)
  f0 : float;  (** heuristic first frequency scale: [1 / mean C] (§3.2) *)
  g0 : float;  (** heuristic first conductance scale: [1 / mean G] (§3.2) *)
  name : string;  (** for reports: ["num"], ["den"], ... *)
  counter : int ref;
      (** Incremented once per point by the smart constructors below: one
          LU decomposition per point when the evaluator comes from
          {!of_nodal} — the paper's cost metric.  An evaluator belongs to
          one job on one domain. *)
  guarded : bool;
      (** [true] when a zero value may mean a {e failed factorisation}
          (singular matrix at that point) rather than a true polynomial
          value — the nodal constructors.  {!Interp.run} retries such
          evaluations at perturbed points; synthetic {!of_epoly} evaluators
          are unguarded, so legitimate roots on the unit circle are never
          perturbed. *)
}

type shared = {
  snum : t;  (** numerator evaluator over the shared table *)
  sden : t;  (** denominator evaluator over the shared table *)
  factorizations : unit -> int;
      (** distinct (f, g, s) points actually factorised so far *)
  hits : unit -> int;  (** points served from the table (every point) *)
}

val of_nodal_shared : Symref_mna.Nodal.t -> shared
(** Numerator and denominator evaluators drawing from one memoised
    {!Symref_mna.Nodal.eval} per (f, g, s): one factorisation already yields
    both values (eqs. 8-10), so every interpolation point the two adaptive
    runs share — the whole first pass in particular — is factorised once
    instead of twice.  A call looks each point up once, sends the points
    the table lacks through one {!Symref_mna.Nodal.eval_batch} (one
    elimination-program replay) and returns every value in point order;
    each value is bit-for-bit {!Symref_mna.Nodal.eval}'s at that point.
    The [evaluator.*] fault hooks fire once per point, in point order,
    before the lookup.  Not thread-safe: the pair belongs to one job on one
    domain.  Per-evaluator call counters keep the paper's cost metric
    unchanged. *)

val of_nodal : Symref_mna.Nodal.t -> num:bool -> t
(** The numerator ([num:true]) or denominator side of
    {!of_nodal_shared}, over a table of its own. *)

val of_epoly :
  ?name:string -> gdeg:int -> f0:float -> g0:float -> Symref_poly.Epoly.t -> t
(** Synthetic evaluator around known extended-range coefficients, applying
    the homogeneous scaling law exactly — the engines' unit-test oracle. *)

val eval_count : t -> int
(** [!(t.counter)]. *)
