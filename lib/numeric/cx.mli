(** Small conveniences over the standard [Complex] module. *)

type t = Complex.t

val make : float -> float -> t
val re : t -> float
val im : t -> float
val of_float : float -> t
val j : t
(** The imaginary unit. *)

val jomega : float -> t
(** [jomega w] is [0 + j*w], the evaluation point for AC analysis. *)

val scale : float -> t -> t
val sum : t list -> t
val is_finite : t -> bool

val approx_equal : ?rel:float -> ?abs:float -> t -> t -> bool
(** [|a-b| <= max (abs, rel * max|a| |b|)]. Defaults: [rel = 1e-9],
    [abs = 0.]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
