(** Small-signal AC analysis by direct solution of the full Modified Nodal
    Analysis system — our substitute for the "commercial electrical
    simulator" the paper compares against in Fig. 2.

    Supports the complete element set (voltage sources, all four controlled
    sources and inductors get auxiliary current rows).  Shares no code with
    the interpolation path beyond the sparse LU, so agreement between the two
    is a meaningful check. *)

exception Unsupported of string

type t
(** A prepared AC problem: MNA structure for a circuit. *)

val make : Symref_circuit.Netlist.t -> t
(** @raise Unsupported on an empty circuit. *)

val dimension : t -> int
(** Nodes plus auxiliary branch currents. *)

val solve : t -> omega:float -> Complex.t array
(** Node voltages (index = node id, entry [0] is ground = 0) at angular
    frequency [omega], driven by all independent sources at their AC
    magnitudes.  @raise Symref_linalg.Sparse.Singular if the MNA matrix is
    singular at this frequency. *)

val transfer :
  Symref_circuit.Netlist.t -> out_p:string -> ?out_m:string -> float array -> Complex.t array
(** [transfer c ~out_p ~out_m freqs] runs a sweep over [freqs] (in Hz) and
    returns [v(out_p) - v(out_m)] at each point ([out_m] defaults to
    ground).  With a single unit-magnitude source this is the network
    function on the [j*omega] axis. *)

type bode_point = { freq_hz : float; mag_db : float; phase_deg : float }

val bode :
  Symref_circuit.Netlist.t -> out_p:string -> ?out_m:string -> float array -> bode_point array
(** Magnitude/phase view of {!transfer}; the phase is unwrapped so cascaded
    poles accumulate (Fig. 2 plots down to -800 degrees). *)

val unwrap_phase_deg : float array -> float array
(** Remove 360-degree jumps from a phase sequence (exposed for testing). *)
