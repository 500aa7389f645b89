type t = Complex.t

let make re im : t = { re; im }
let re (z : t) = z.re
let im (z : t) = z.im
let of_float x : t = { re = x; im = 0. }
let j : t = { re = 0.; im = 1. }
let jomega w : t = { re = 0.; im = w }
let scale k (z : t) : t = { re = k *. z.re; im = k *. z.im }
let sum = List.fold_left Complex.add Complex.zero
let is_finite (z : t) = Float.is_finite z.re && Float.is_finite z.im

let approx_equal ?(rel = 1e-9) ?(abs = 0.) a b =
  let d = Complex.norm (Complex.sub a b) in
  d <= Float.max abs (rel *. Float.max (Complex.norm a) (Complex.norm b))

let to_string (z : t) = Printf.sprintf "%.6g%+.6gj" z.re z.im
let pp ppf z = Format.pp_print_string ppf (to_string z)
