type t = { c : Complex.t; e : int }

let zero = { c = Complex.zero; e = 0 }

(* Normalise so that the larger component's magnitude lies in [0.5, 1); this
   keeps both components of the mantissa representable for any value.  The
   exponent is [Extfloat.frexp_exp], read from the bits: the rule
   lib/linalg/batch_stub.c's [frexp_exp] states for the determinant fold of
   the C kernel, so both sides scale a mantissa by the same power of two.
   [norm_parts] takes the components unboxed, so [mul] and [add] normalise
   the product or sum they compute in place without a [Complex.t] for it. *)
let[@inline] norm_parts re im e =
  let a = Float.max (Float.abs re) (Float.abs im) in
  if a = 0. then zero
  else
    let de = Extfloat.frexp_exp a in
    { c = { re = Float.ldexp re (-de); im = Float.ldexp im (-de) }; e = e + de }

let norm_mantissa (c : Complex.t) e = norm_parts c.re c.im e

let finite (c : Complex.t) = Float.is_finite c.re && Float.is_finite c.im

let of_complex c =
  if not (finite c) then invalid_arg "Extcomplex.of_complex: not finite"
  else norm_mantissa c 0

let one = of_complex Complex.one

(* Component tests instead of the polymorphic [= Complex.zero]: the same
   verdict ([-0.] is zero) without a [caml_equal] call. *)
let is_zero x = x.c.re = 0. && x.c.im = 0.

let to_complex ({ c; e } as x) =
  if is_zero x then Complex.zero
  else if e > 1030 then
    let blow x = if x = 0. then 0. else x *. infinity in
    { re = blow c.re; im = blow c.im }
  else if e < -1080 then Complex.zero
  else { re = Float.ldexp c.re e; im = Float.ldexp c.im e }

let of_extfloat (x : Extfloat.t) =
  norm_mantissa { re = x.Extfloat.m; im = 0. } x.Extfloat.e

let make ~c ~e =
  if not (finite c) then invalid_arg "Extcomplex.make: not finite"
  else norm_mantissa c e

let neg x = { x with c = Complex.neg x.c }
let conj x = { x with c = Complex.conj x.c }

(* [Complex.mul a.c b.c], written out. *)
let mul a b =
  norm_parts
    ((a.c.re *. b.c.re) -. (a.c.im *. b.c.im))
    ((a.c.re *. b.c.im) +. (a.c.im *. b.c.re))
    (a.e + b.e)

let div a b =
  if is_zero b then raise Division_by_zero
  else norm_mantissa (Complex.div a.c b.c) (a.e - b.e)

(* [hi + lo] with [hi.e >= lo.e]: [lo] aligned to [hi]'s exponent, then
   [Complex.add], written out. *)
let add_aligned hi lo =
  let gap = hi.e - lo.e in
  if gap > 60 then hi
  else
    norm_parts
      (hi.c.re +. Float.ldexp lo.c.re (-gap))
      (hi.c.im +. Float.ldexp lo.c.im (-gap))
      hi.e

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if a.e >= b.e then add_aligned a b
  else add_aligned b a

let sub a b = add a (neg b)
let mul_complex a z = mul a (of_complex z)
let norm x = Extfloat.make ~m:(Complex.norm x.c) ~e:x.e
let arg x = if is_zero x then 0. else Complex.arg x.c
let re x = Extfloat.make ~m:x.c.re ~e:x.e
let im x = Extfloat.make ~m:x.c.im ~e:x.e
let log10_norm x = Extfloat.log10_abs (norm x)

let approx_equal ?(rel = 1e-9) a b =
  if is_zero a && is_zero b then true
  else
    let d = norm (sub a b) in
    let m = Extfloat.(if compare_mag (norm a) (norm b) >= 0 then norm a else norm b) in
    Extfloat.(compare_mag d (mul_float m rel)) <= 0

let to_string x =
  let r = re x and i = im x in
  Printf.sprintf "%s%sj%s" (Extfloat.to_string r)
    (if Extfloat.sign i >= 0 then "+" else "-")
    (Extfloat.to_string (Extfloat.abs i))

let pp ppf x = Format.pp_print_string ppf (to_string x)
