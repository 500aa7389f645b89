(** Error budgets for the simplification pipeline.

    One user-level magnitude/phase tolerance, split across the three stages
    (SBG circuit pruning, SDG coefficient truncation, SAG function-level
    term dropping) so the end-to-end certificate can close against the full
    budget. *)

type split = {
  sbg : float;  (** share of the budget spent pruning the circuit *)
  sdg : float;  (** share spent truncating coefficients *)
  sag : float;  (** share spent dropping function-level terms *)
}

val default_split : split
(** [0.40 / 0.35 / 0.25] — pruning buys the most compression per dB, so it
    gets the largest share. *)

type t = {
  total_db : float;   (** end-to-end worst-case magnitude budget, dB *)
  total_deg : float;  (** end-to-end worst-case phase budget, degrees *)
  split : split;
}

val v : ?split:split -> db:float -> deg:float -> unit -> t
(** @raise Invalid_argument when a budget is not finite and positive, a
    share is negative, or the shares sum to more than one. *)

(** Per-stage allowances, [total * share]: *)

val sbg_db : t -> float
val sbg_deg : t -> float
val sdg_db : t -> float
val sdg_deg : t -> float
val sag_db : t -> float
val sag_deg : t -> float

val epsilon : db:float -> deg:float -> float
(** The relative-magnitude epsilon equivalent to a (dB, degree) allowance:
    [min(10^(db/20) - 1, sin(deg * pi/180))] — a relative perturbation of
    [eps] moves the magnitude by at most [20 log10(1+eps)] dB and the phase
    by at most [arcsin eps >= eps] radians, so either bound alone keeps the
    stage inside its share. *)
