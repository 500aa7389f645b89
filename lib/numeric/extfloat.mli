(** Extended-range floating-point numbers.

    A value is represented as [m * 2^e] with the mantissa [m] kept normalised
    in [[0.5, 1)] by magnitude (or exactly [0.]) and an unbounded (OCaml
    [int]) binary exponent.  The type exists because the denormalised
    network-function coefficients of large analog circuits span magnitudes
    such as [1e-522] (Table 3 of the paper), far outside IEEE-double range,
    while still only needing double precision in the mantissa.

    All operations are total; [nan]/[infinite] mantissas are rejected at
    construction by {!of_float} raising [Invalid_argument]. *)

type t = private {
  m : float;  (** normalised mantissa: [0.] or [0.5 <= abs m < 1.] *)
  e : int;    (** binary exponent *)
}

val zero : t
val one : t
val minus_one : t

val of_float : float -> t
(** [of_float x] represents the double [x] exactly.
    @raise Invalid_argument on [nan] or infinite input. *)

val frexp_exp : float -> int
(** [frexp_exp a] is [snd (Float.frexp a)] for every finite [a] ([0] for
    zero), read from the bits without allocating; subnormals included.
    lib/linalg/batch_stub.c states the same rule for the C kernel. *)

val to_float : t -> float
(** Round back to double; overflows to [infinity] and underflows to [0.]
    silently (this is the expected behaviour when feeding in-range values to
    double-precision consumers). *)

val make : m:float -> e:int -> t
(** [make ~m ~e] builds [m * 2^e], renormalising as needed. *)

val is_zero : t -> bool
val sign : t -> int
(** [-1], [0] or [1]. *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero when the divisor is zero. *)

val mul_float : t -> float -> t
val pow_int : t -> int -> t
(** [pow_int x n] for any integer [n] (negative allowed).
    @raise Division_by_zero if [x] is zero and [n < 0]. *)

val float_pow_int : float -> int -> t
(** [float_pow_int f n] computes [f^n] without intermediate overflow or
    underflow; [f] must be positive. *)

val compare_mag : t -> t -> int
(** Compare absolute values. *)

val compare : t -> t -> int
(** Signed comparison. *)

val equal : t -> t -> bool
(** Exact (representation-level) equality of the values. *)

val approx_equal : ?rel:float -> t -> t -> bool
(** [approx_equal ~rel a b] holds when [|a - b| <= rel * max |a| |b|] (also
    when both are zero).  Default [rel] is [1e-9]. *)

val log10_abs : t -> float
(** Decimal magnitude, [log10 |x|]; [neg_infinity] for zero. *)

val to_decimal : t -> float * int
(** [(d, k)] with [x = d * 10^k], [1. <= abs d < 10.] (or [(0., 0)]). *)

val of_decimal : float -> int -> t
(** [of_decimal d k] is [d * 10^k], computed without overflow. *)

val to_string : t -> string
(** Scientific notation with 6 significant digits, e.g. ["-1.12150e-522"]. *)

val pp : Format.formatter -> t -> unit
