(** Simplification Before Generation: prune circuit elements whose
    contribution to the network function is negligible, so the reduced
    circuit is much easier to analyse symbolically (paper §1).

    Error control compares the frequency response of the pruned circuit
    against the response of the complete circuit — exactly the comparison
    that needs the numerical reference machinery for large circuits.

    Two moves are available per candidate: {e opening} the element (remove
    it, the classic negligible-shunt prune) and {e shorting} it (merge its
    terminal nodes, the negligible-series prune).  Shorts also reduce the
    nodal dimension, which is what makes a circuit reachable for the exact
    symbolic stage ({!Sdet.max_dimension}). *)

type action =
  | Opened   (** element removed; stranded nodes compacted away *)
  | Shorted  (** element removed and its terminal nodes merged *)

type removal = {
  element : string;     (** element name *)
  action : action;
  delta_db : float;     (** error-budget cost of this removal alone *)
  delta_deg : float;
  error_db : float;     (** cumulative deviation after this removal *)
  error_deg : float;
}
(** One accepted removal, in order, with its error attribution: [delta_*] is
    the increase of the cumulative worst-case deviation caused by this
    removal (clamped at zero — a removal can cancel earlier error), and
    [error_*] the running total the accept test checked.  The last entry's
    [error_*] equals the outcome's [error_*]. *)

type config = {
  tolerance_db : float;     (** maximum magnitude deviation (default 0.5 dB) *)
  tolerance_deg : float;    (** maximum phase deviation (default 5 degrees) *)
  removable : Symref_circuit.Element.t -> bool;
      (** open-move candidate filter (default: conductances, resistors,
          capacitors) *)
  shortable : Symref_circuit.Element.t -> bool;
      (** short-move candidate filter (default: nothing — shorts are opt-in;
          {!default_shortable} accepts conductances and resistors) *)
}

val default_config : config

val default_shortable : Symref_circuit.Element.t -> bool
(** Conductances and resistors — the series-parasitic candidates. *)

type outcome = {
  pruned : Symref_circuit.Netlist.t;
  removed : string list;       (** element names, in removal order *)
  removals : removal list;     (** the same removals with error attribution *)
  error_db : float;            (** final worst-case magnitude deviation *)
  error_deg : float;
  candidates : int;            (** candidate moves considered *)
  trials : int;                (** pruning attempts performed *)
}

val prune :
  ?config:config ->
  Symref_circuit.Netlist.t ->
  input:Symref_mna.Nodal.input ->
  output:Symref_mna.Nodal.output ->
  freqs:float array ->
  outcome
(** Greedy pruning: candidate moves are tried in increasing order of a cheap
    impact estimate (response change when the move is applied alone) and
    applied while the cumulative deviation from the {e original} response
    stays inside tolerance.  Moves that make the network singular,
    unsolvable, or that collapse the input/output nodes are kept.
    @raise Invalid_argument when the full circuit itself is singular.
    @raise Symref_mna.Nodal.Unsupported when the full circuit is outside the
    nodal class (an unknown output node, say). *)
