(** Polynomials with extended-range coefficients ({!Symref_numeric.Extfloat}).

    Network-function coefficients of large circuits span hundreds of decades
    once denormalised; this representation evaluates them safely (Horner in
    extended-range complex arithmetic), which is what the Bode reconstruction
    of Fig. 2 needs. *)

module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex

type t

val zero : t
val of_coeffs : Ef.t array -> t
(** Copies and trims trailing (exact) zeros. *)

val of_floats : float array -> t
val of_poly : Poly.t -> t
val coeffs : t -> Ef.t array
val coeff : t -> int -> Ef.t
val degree : t -> int
(** [-1] for the zero polynomial. *)

val is_zero : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Ef.t -> t -> t
val mul : t -> t -> t

val eval : t -> Ec.t -> Ec.t
(** Horner evaluation at an extended-complex point. *)

val eval_jomega : t -> float -> Ec.t
(** [eval_jomega p w] evaluates at [s = j*w]. *)

val scale_var : t -> Ef.t -> t
(** [scale_var p a]: substitute [s -> a*s] (coefficient [i] gains [a^i]). *)

val derivative : t -> t

val max_abs_coeff : t -> Ef.t
(** Largest coefficient magnitude; zero for the zero polynomial. *)

val approx_equal : ?rel:float -> t -> t -> bool
(** Coefficient-wise relative comparison (default [1e-9]). *)

val pp : Format.formatter -> t -> unit
