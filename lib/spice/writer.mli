(** Netlist writer: emits the SPICE-subset text form of a circuit.

    Circuits are stored as expanded primitives, so transistors appear as
    their hybrid-pi / quasi-static elements; the output parses back with
    {!Parser} into an equivalent circuit (same nodes, same element values —
    element name case may differ). *)

val to_string : Symref_circuit.Netlist.t -> string
(** Values in SI form, to six significant digits. *)

val canonical : Symref_circuit.Netlist.t -> string
(** The cards of {!to_string} with every value printed exactly, as a
    hexadecimal float ([%h]): two circuits get the same text only when
    their titles, cards and value bits agree.  The serve cache key
    ({!Symref_serve.Service.cache_key}) hashes it; it is not meant to be
    read back. *)

val to_file : string -> Symref_circuit.Netlist.t -> unit
