type t = { m : float; e : int }

let zero = { m = 0.; e = 0 }

(* The exponent [Float.frexp a] returns for a finite [a], read from the bits
   instead of through [frexp]'s allocated pair: the biased exponent field
   less 1022, and for a subnormal the same after one exact scaling by 2^54.
   It is the rule [frexp_exp] states for the C kernel in
   lib/linalg/batch_stub.c, and the one place the OCaml side states it. *)
let[@inline] frexp_exp a =
  let be = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 52) land 0x7ff in
  if be > 0 then be - 1022
  else if a = 0. then 0
  else
    let bes = Int64.bits_of_float (a *. 0x1p54) in
    (Int64.to_int (Int64.shift_right_logical bes 52) land 0x7ff) - 1076

(* Renormalise an arbitrary finite mantissa into [0.5, 1): [frexp]'s
   mantissa, scaled exactly by the exponent read from the bits.  Inlined,
   so the product or quotient an operation passes in stays unboxed. *)
let[@inline] norm m e =
  if m = 0. then zero
  else
    let de = frexp_exp m in
    { m = Float.ldexp m (-de); e = e + de }

let of_float x =
  if not (Float.is_finite x) then invalid_arg "Extfloat.of_float: not finite"
  else norm x 0

let one = of_float 1.
let make ~m ~e =
  if not (Float.is_finite m) then invalid_arg "Extfloat.make: not finite"
  else norm m e

let to_float { m; e } =
  if m = 0. then 0.
  else if e > 1030 then if m > 0. then infinity else neg_infinity
  else if e < -1080 then 0.
  else Float.ldexp m e

let is_zero x = x.m = 0.
let sign x = compare x.m 0.
let neg x = { x with m = -.x.m }
let abs x = { x with m = Float.abs x.m }
let mul a b = norm (a.m *. b.m) (a.e + b.e)

let div a b =
  if b.m = 0. then raise Division_by_zero else norm (a.m /. b.m) (a.e - b.e)

(* Addition aligns the smaller operand's exponent to the larger's; a gap of
   more than 60 bits makes the smaller operand invisible in a double. *)
let add a b =
  if a.m = 0. then b
  else if b.m = 0. then a
  else
    let hi, lo = if a.e >= b.e then (a, b) else (b, a) in
    let gap = hi.e - lo.e in
    if gap > 60 then hi else norm (hi.m +. Float.ldexp lo.m (-gap)) hi.e

let sub a b = add a (neg b)
let mul_float a f = mul a (of_float f)

let pow_int x n =
  if n = 0 then one
  else if x.m = 0. then if n > 0 then zero else raise Division_by_zero
  else
    let rec go acc base n =
      if n = 0 then acc
      else
        let acc = if n land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (n lsr 1)
    in
    let p = go one x (Stdlib.abs n) in
    if n > 0 then p else div one p

let float_pow_int f n =
  if not (f > 0.) then invalid_arg "Extfloat.float_pow_int: base must be > 0";
  pow_int (of_float f) n

let compare_mag a b =
  if a.m = 0. then if b.m = 0. then 0 else -1
  else if b.m = 0. then 1
  else
    let c = Int.compare a.e b.e in
    if c <> 0 then c else Float.compare (Float.abs a.m) (Float.abs b.m)

let compare a b =
  let sa = sign a and sb = sign b in
  if sa <> sb then Int.compare sa sb
  else if sa >= 0 then compare_mag a b
  else compare_mag b a

let equal a b = compare a b = 0

let approx_equal ?(rel = 1e-9) a b =
  if a.m = 0. && b.m = 0. then true
  else
    let d = abs (sub a b) in
    let m = if compare_mag a b >= 0 then abs a else abs b in
    compare_mag d (mul_float m rel) <= 0

let log2_10 = Float.log2 10.
let log10_2 = 1. /. log2_10

let log10_abs x =
  if x.m = 0. then neg_infinity
  else Float.log10 (Float.abs x.m) +. (float_of_int x.e *. log10_2)

let to_decimal x =
  if x.m = 0. then (0., 0)
  else
    let l = log10_abs x in
    let k = int_of_float (Float.floor l) in
    let d = Float.exp ((l -. float_of_int k) *. Float.log 10.) in
    (* Guard against boundary rounding pushing d out of [1, 10). *)
    let d, k = if d >= 10. then (d /. 10., k + 1) else (d, k) in
    let d, k = if d < 1. then (d *. 10., k - 1) else (d, k) in
    ((if x.m < 0. then -.d else d), k)

let of_decimal d k =
  if d = 0. then zero
  else
    (* 10^k = 2^(k*log2 10): split into integer exponent and residual. *)
    let p = float_of_int k *. log2_10 in
    let pi = Float.floor p in
    let residual = Float.exp ((p -. pi) *. Float.log 2.) in
    norm (d *. residual) (int_of_float pi)

let to_string x =
  if x.m = 0. then "0.00000e+00"
  else
    let d, k = to_decimal x in
    Printf.sprintf "%.5fe%+03d" d k

let pp ppf x = Format.pp_print_string ppf (to_string x)
