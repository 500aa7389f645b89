(** Monte-Carlo tolerance analysis: sample element values around their
    design point, re-run the small-signal analysis, and report the response
    spread — the production companion of the sensitivity table (and a heavy
    consumer of fast repeated analyses).

    Sampling is deterministic from the seed (LCG, log-normal-ish via a
    uniform factor in [1/(1+tol), 1+tol]); no global randomness. *)

type config = {
  samples : int;                (** default 100 *)
  seed : int;                   (** default 1 *)
  tolerance : Symref_circuit.Element.t -> float option;
      (** per-element relative tolerance; [None] leaves the element exact.
          Default: 10% on R/C/G, 20% on transconductances, sources exact. *)
}

val default_config : config

type stat = {
  freq_hz : float;
  nominal_db : float;
  mean_db : float;
  std_db : float;
  min_db : float;
  max_db : float;
}

val gain_spread :
  ?config:config ->
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  freqs:float array ->
  stat array
(** Magnitude statistics of [H(j w)] across the samples at each frequency.
    Samples whose network turns out singular are skipped (and never counted).
    @raise Nodal.Unsupported outside the nodal class. *)

val yield_ :
  ?config:config ->
  Symref_circuit.Netlist.t ->
  input:Nodal.input ->
  output:Nodal.output ->
  accept:(Complex.t array -> bool) ->
  freqs:float array ->
  float
(** Fraction of samples whose response (the array of [H(j w)] over [freqs])
    passes the acceptance test — a scripted yield study.  Singular samples
    count as rejects.  @raise Nodal.Unsupported outside the nodal class. *)
