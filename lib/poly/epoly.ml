module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex

type t = Ef.t array
(* Invariant: empty, or last element non-zero. *)

let trim a =
  let n = Array.length a in
  let rec last i = if i >= 0 && Ef.is_zero a.(i) then last (i - 1) else i in
  let d = last (n - 1) in
  if d = n - 1 then Array.copy a else Array.sub a 0 (d + 1)

let zero : t = [||]
let of_coeffs a = trim a
let of_floats a = trim (Array.map Ef.of_float a)
let of_poly p = of_floats (Poly.coeffs p)
let coeffs (p : t) = Array.copy p
let coeff (p : t) i = if i < Array.length p then p.(i) else Ef.zero
let degree (p : t) = Array.length p - 1
let is_zero (p : t) = Array.length p = 0

let add (a : t) (b : t) : t =
  let n = Int.max (Array.length a) (Array.length b) in
  trim (Array.init n (fun i -> Ef.add (coeff a i) (coeff b i)))

let neg (p : t) : t = Array.map Ef.neg p
let sub a b = add a (neg b)
let scale k (p : t) : t = trim (Array.map (Ef.mul k) p)

let mul (a : t) (b : t) : t =
  if is_zero a || is_zero b then zero
  else begin
    let r = Array.make (Array.length a + Array.length b - 1) Ef.zero in
    Array.iteri
      (fun i ai ->
        Array.iteri (fun k bk -> r.(i + k) <- Ef.add r.(i + k) (Ef.mul ai bk)) b)
      a;
    trim r
  end

(* Horner's rule on unboxed locals.  Each step is, operation for operation,
   [acc := Ec.add (Ec.mul acc z) (Ec.of_extfloat c)]: the same products,
   sums, [ldexp] alignments and normalisations in the same order, without a
   record per operation.  The accumulator [(re, im) * 2^e] is normalised as
   an [Ec.t] is, with [Ec.zero] as [(0, 0) * 2^0]; a coefficient's mantissa
   is normalised already, so [Ec.of_extfloat c] is [(c.m, 0) * 2^c.e], or
   zero. *)
let eval (p : t) (z : Ec.t) =
  let zr = z.Ec.c.Complex.re and zi = z.Ec.c.Complex.im and ze = z.Ec.e in
  let re = ref 0. and im = ref 0. and e = ref 0 in
  for i = Array.length p - 1 downto 0 do
    (* [Ec.mul acc z]. *)
    let pr = (!re *. zr) -. (!im *. zi) and pi = (!re *. zi) +. (!im *. zr) in
    let a = Float.max (Float.abs pr) (Float.abs pi) in
    if a = 0. then begin
      re := 0.;
      im := 0.;
      e := 0
    end
    else begin
      let d = Ef.frexp_exp a in
      re := Float.ldexp pr (-d);
      im := Float.ldexp pi (-d);
      e := !e + ze + d
    end;
    (* [Ec.add acc (Ec.of_extfloat c)]; the larger exponent leads. *)
    let cm = p.(i).Ef.m and ce = p.(i).Ef.e in
    if cm = 0. then ()
    else if !re = 0. && !im = 0. then begin
      re := cm;
      im := 0.;
      e := ce
    end
    else begin
      let acc_leads = !e >= ce in
      let gap = if acc_leads then !e - ce else ce - !e in
      if gap > 60 then begin
        if not acc_leads then begin
          re := cm;
          im := 0.;
          e := ce
        end
      end
      else begin
        let sr =
          if acc_leads then !re +. Float.ldexp cm (-gap)
          else cm +. Float.ldexp !re (-gap)
        and si =
          if acc_leads then !im +. Float.ldexp 0. (-gap)
          else 0. +. Float.ldexp !im (-gap)
        and se = if acc_leads then !e else ce in
        let a = Float.max (Float.abs sr) (Float.abs si) in
        if a = 0. then begin
          re := 0.;
          im := 0.;
          e := 0
        end
        else begin
          let d = Ef.frexp_exp a in
          re := Float.ldexp sr (-d);
          im := Float.ldexp si (-d);
          e := se + d
        end
      end
    end
  done;
  (* Renormalising a normalised mantissa is the identity. *)
  Ec.make ~c:{ Complex.re = !re; im = !im } ~e:!e

let eval_jomega p w = eval p (Ec.of_complex { Complex.re = 0.; im = w })

let scale_var (p : t) a : t =
  let pow = ref Ef.one in
  trim
    (Array.mapi
       (fun i c ->
         if i > 0 then pow := Ef.mul !pow a;
         Ef.mul c !pow)
       p)

let derivative (p : t) : t =
  if Array.length p <= 1 then zero
  else
    trim
      (Array.init (Array.length p - 1) (fun i ->
           Ef.mul_float p.(i + 1) (float_of_int (i + 1))))

let max_abs_coeff (p : t) =
  Array.fold_left
    (fun acc c -> if Ef.compare_mag c acc > 0 then Ef.abs c else acc)
    Ef.zero p

let approx_equal ?(rel = 1e-9) a b =
  degree a = degree b
  && Array.for_all2 (fun x y -> Ef.approx_equal ~rel x y) a b

let pp ppf (p : t) =
  if is_zero p then Format.pp_print_string ppf "0"
  else
    Array.iteri
      (fun i c ->
        if i > 0 then Format.fprintf ppf " + ";
        Format.fprintf ppf "%a*s^%d" Ef.pp c i)
      p
