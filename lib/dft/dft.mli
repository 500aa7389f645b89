(** Discrete Fourier transforms (direct [O(K^2)] evaluation).

    The inverse transform recovers polynomial coefficients from values at the
    roots of unity (eq. 5 of the paper):
    [p_i = (1/K) * sum_k P(s_k) * e^(-2*pi*j*i*k/K)].

    The direct algorithm is used for arbitrary [K] (the number of
    interpolation points is [n+1] for an [n]-th order polynomial, rarely a
    power of two); {!Fft} accelerates the power-of-two case.  Each call
    builds one table of the [K] roots ({!Unit_circle.points}) and indexes
    it, so a term costs a multiply-add, not a cosine and a sine; the
    table holds the same values {!Unit_circle.point} returns, so the bits
    are the same. *)

val forward : Complex.t array -> Complex.t array
(** [forward p] evaluates the polynomial with coefficients [p] at the [K]
    roots of unity ([K = Array.length p]): [X.(k) = sum_i p.(i) w^(ik)],
    [w = e^(2*pi*j/K)]. *)

val inverse : Complex.t array -> Complex.t array
(** [inverse values] recovers coefficients from values at the roots of unity;
    inverse of {!forward}. *)

val complete_real_spectrum : int -> Complex.t array -> Complex.t array
(** [complete_real_spectrum k half] expands values at the first [k/2 + 1]
    roots of unity into all [k] values using the conjugate symmetry
    [P(conj s) = conj (P s)] that holds for real-coefficient polynomials.
    @raise Invalid_argument when [Array.length half <> k/2 + 1]. *)

val inverse_real_spectrum : int -> Complex.t array -> Complex.t array
(** [inverse_real_spectrum k half] recovers the [k] coefficients directly
    from the [k/2 + 1] upper-half-circle values of a conjugate-symmetric
    spectrum — the same answer as
    [inverse (complete_real_spectrum k half)] but with roughly half the
    multiply-adds: each conjugate pair [x_j w^(-ij) + conj(x_j) w^(ij)]
    is folded to [2 Re (x_j w^(-ij))] before it is summed.  The folding
    cancels each pair's imaginary parts {e exactly} (the full transform
    cancels them only to round-off), so the output's imaginary residue
    comes solely from the self-conjugate points [j = 0] and (even [k])
    [j = k/2]; results agree with the completed full transform to a few
    ulp, not to the bit.
    @raise Invalid_argument when [k < 1] or
    [Array.length half <> k/2 + 1]. *)
