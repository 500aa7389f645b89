module Ec = Symref_numeric.Extcomplex
module Ef = Symref_numeric.Extfloat
module Epoly = Symref_poly.Epoly
module Nodal = Symref_mna.Nodal
module Obs = Symref_obs.Metrics
module Inject = Symref_fault.Inject

type t = {
  eval : f:float -> g:float -> Complex.t array -> Ec.t array;
  gdeg : int;
  order_bound : int;
  f0 : float;
  g0 : float;
  name : string;
  counter : int ref;
  guarded : bool;
}

(* Count one call per point and fire the fault hooks, point by point in
   order.  NaN poisoning corrupts the evaluation point itself
   (extended-range values are non-finite-free by construction): every
   matrix entry becomes NaN, the pivot search finds nothing — NaN fails
   every comparison — and the evaluation surfaces as a singular zero value,
   the degradation path [Interp.run]'s guard covers. *)
let fire_hooks counter points =
  Array.map
    (fun (s : Complex.t) ->
      incr counter;
      Obs.incr Obs.evaluator_calls;
      if Inject.fire Inject.eval_delay then Inject.sleep_payload Inject.eval_delay;
      if Inject.fire Inject.eval_raise then Inject.fail Inject.eval_raise;
      if Inject.fire Inject.eval_nan then { Complex.re = Float.nan; im = Float.nan }
      else s)
    points

type shared = { snum : t; sden : t; factorizations : unit -> int; hits : unit -> int }

(* One factorisation already yields both the numerator and the denominator
   (eq. 8-10: one LU, one solve), yet separate adaptive runs would redo it.
   Memoise the full nodal evaluation per (f, g, s): the numerator and
   denominator evaluators draw from one table, so every point the two runs
   share — all of the first pass, since the initial scale and point set
   depend only on the problem — costs a single factorisation.  Each call
   looks its points up once and sends the ones the table lacks through one
   [Nodal.eval_batch]; every point is then served from the table.  A
   poisoned point carries a NaN key, which no real point's key equals, so
   an injected fault never reaches a real point's entry.  A table belongs
   to one job, evaluated on one domain. *)
let of_nodal_shared problem =
  let table : (float * float * float * float, Nodal.value) Hashtbl.t =
    Hashtbl.create 256
  in
  let misses = ref 0 and hits = ref 0 in
  let lookup ~f ~g (points : Complex.t array) =
    let key (s : Complex.t) = (f, g, s.Complex.re, s.Complex.im) in
    let found = Array.map (fun s -> Hashtbl.find_opt table (key s)) points in
    let missing =
      Array.of_list
        (List.filter
           (fun i -> Option.is_none found.(i))
           (List.init (Array.length points) Fun.id))
    in
    if Array.length missing > 0 then begin
      let vals =
        Nodal.eval_batch ~f ~g problem (Array.map (fun i -> points.(i)) missing)
      in
      Array.iteri
        (fun j i ->
          Hashtbl.replace table (key points.(i)) vals.(j);
          found.(i) <- Some vals.(j))
        missing;
      misses := !misses + Array.length missing;
      Obs.add Obs.memo_misses (Array.length missing)
    end;
    hits := !hits + Array.length points;
    Obs.add Obs.memo_hits (Array.length points);
    Array.map Option.get found
  in
  let mk ~num =
    let counter = ref 0 in
    let eval ~f ~g points =
      Array.map
        (fun v -> if num then v.Nodal.num else v.Nodal.den)
        (lookup ~f ~g (fire_hooks counter points))
    in
    {
      eval;
      gdeg = (if num then Nodal.num_gdeg problem else Nodal.den_gdeg problem);
      order_bound = Nodal.order_bound problem;
      f0 = 1. /. Nodal.mean_capacitance problem;
      g0 = 1. /. Nodal.mean_conductance problem;
      name = (if num then "num" else "den");
      counter;
      guarded = true;
    }
  in
  {
    snum = mk ~num:true;
    sden = mk ~num:false;
    factorizations = (fun () -> !misses);
    hits = (fun () -> !hits);
  }

let of_nodal problem ~num =
  let s = of_nodal_shared problem in
  if num then s.snum else s.sden

let of_epoly ?(name = "poly") ~gdeg ~f0 ~g0 p =
  if Epoly.degree p > gdeg then
    invalid_arg "Evaluator.of_epoly: degree exceeds homogeneity degree";
  let counter = ref 0 in
  let eval ~f ~g points =
    (* Scale coefficients exactly: p_i -> p_i f^i g^(gdeg-i), then Horner. *)
    let scaled =
      Epoly.of_coeffs
        (Array.mapi
           (fun i c ->
             Ef.mul c (Ef.mul (Ef.float_pow_int f i) (Ef.float_pow_int g (gdeg - i))))
           (Epoly.coeffs p))
    in
    Array.map
      (fun s ->
        incr counter;
        Obs.incr Obs.evaluator_calls;
        Epoly.eval scaled (Ec.of_complex s))
      points
  in
  { eval; gdeg; order_bound = Epoly.degree p; f0; g0; name; counter; guarded = false }

let eval_count t = !(t.counter)
