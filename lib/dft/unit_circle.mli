(** Interpolation points on the unit circle.

    Polynomial interpolation for network functions evaluates [P(s_k)] at
    [K] equally-spaced points [s_k = e^(2*pi*j*k/K)] — the choice shown in
    the literature to be optimal for numerical accuracy and stability. *)

val points : int -> Complex.t array
(** [points k] returns the [k] roots of unity, index [i] holding
    [e^(2*pi*j*i/k)].  @raise Invalid_argument when [k < 1]. *)

val point : int -> int -> Complex.t
(** [point k i] is the [i]-th of the [k] roots of unity (computed directly,
    exact trigonometry at the quadrant boundaries). *)
