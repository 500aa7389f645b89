module Ec = Symref_numeric.Extcomplex
module Ef = Symref_numeric.Extfloat
module Epoly = Symref_poly.Epoly
module Nodal = Symref_mna.Nodal
module Obs = Symref_obs.Metrics
module Inject = Symref_fault.Inject

type t = {
  eval : f:float -> g:float -> Complex.t -> Ec.t;
  prefetch : (f:float -> g:float -> Complex.t array -> unit) option;
  gdeg : int;
  order_bound : int;
  f0 : float;
  g0 : float;
  name : string;
  counter : int Atomic.t;
  guarded : bool;
}

(* Fault hooks shared by the nodal constructors.  NaN poisoning corrupts
   the evaluation point itself (extended-range values are non-finite-free
   by construction): every matrix entry becomes NaN, the pivot search finds
   nothing — NaN fails every comparison — and the evaluation surfaces as a
   singular zero value, the degradation path [Interp.run]'s guard covers. *)
let inject_faults (s : Complex.t) =
  if Inject.fire Inject.eval_delay then Inject.sleep_payload Inject.eval_delay;
  if Inject.fire Inject.eval_raise then Inject.fail Inject.eval_raise;
  if Inject.fire Inject.eval_nan then { Complex.re = Float.nan; im = Float.nan }
  else s

let of_nodal problem ~num =
  let counter = Atomic.make 0 in
  let eval ~f ~g s =
    Atomic.incr counter;
    Obs.incr Obs.evaluator_calls;
    let s = inject_faults s in
    let v = Nodal.eval ~f ~g problem s in
    if num then v.Nodal.num else v.Nodal.den
  in
  {
    eval;
    prefetch = None;
    gdeg = (if num then Nodal.num_gdeg problem else Nodal.den_gdeg problem);
    order_bound = Nodal.order_bound problem;
    f0 = 1. /. Nodal.mean_capacitance problem;
    g0 = 1. /. Nodal.mean_conductance problem;
    name = (if num then "num" else "den");
    counter;
    guarded = true;
  }

type shared = { snum : t; sden : t; factorizations : unit -> int; hits : unit -> int }

(* One factorisation already yields both the numerator and the denominator
   (eq. 8-10: one LU, one solve), yet separate adaptive runs would redo it.
   Memoise the full nodal evaluation per (f, g, s): the numerator and
   denominator evaluators draw from one table, so every point the two runs
   share — all of the first pass, since the initial scale and point set
   depend only on the problem — costs a single factorisation.  A memo
   belongs to one job, evaluated on one domain. *)
let of_nodal_shared problem =
  let table : (float * float * float * float, Nodal.value) Hashtbl.t =
    Hashtbl.create 256
  in
  let misses = ref 0 and hits = ref 0 in
  (* Batched pass warm-up: compute every not-yet-memoised point of a batch
     through [Nodal.eval_batch] (one elimination-program decode for the
     whole batch) and seed the table, so the subsequent per-point [eval]
     calls all hit.  Counter shape: each prefetched point is a memo miss —
     the same misses a per-point sweep would record, just ahead of the
     calls — and the later [eval] calls are hits.  Keys are the exact
     (f, g, re, im) quadruples of the points handed in, so callers must
     prefetch with the same point values they evaluate. *)
  let prefetch ~f ~g (points : Complex.t array) =
    let seen = Hashtbl.create (2 * Array.length points) in
    let missing =
      Array.to_list points
      |> List.filter (fun (s : Complex.t) ->
             let key = (f, g, s.Complex.re, s.Complex.im) in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.add seen key ();
               not (Hashtbl.mem table key)
             end)
      |> Array.of_list
    in
    if Array.length missing > 0 then begin
      let vals = Nodal.eval_batch ~f ~g problem missing in
      Array.iteri
        (fun i (s : Complex.t) ->
          incr misses;
          Obs.incr Obs.memo_misses;
          Hashtbl.replace table (f, g, s.Complex.re, s.Complex.im) vals.(i))
        missing
    end
  in
  let shared_eval ~f ~g (s : Complex.t) =
    let key = (f, g, s.Complex.re, s.Complex.im) in
    match Hashtbl.find_opt table key with
    | Some v ->
        incr hits;
        Obs.incr Obs.memo_hits;
        v
    | None ->
        let v = Nodal.eval ~f ~g problem s in
        incr misses;
        Obs.incr Obs.memo_misses;
        Hashtbl.replace table key v;
        v
  in
  let mk ~num =
    let counter = Atomic.make 0 in
    let eval ~f ~g s =
      Atomic.incr counter;
      Obs.incr Obs.evaluator_calls;
      (* Poisoned points carry NaN keys, which never match in the memo
         (NaN compares unequal to itself) — an injected fault can therefore
         never contaminate the shared table. *)
      let s = inject_faults s in
      let v = shared_eval ~f ~g s in
      if num then v.Nodal.num else v.Nodal.den
    in
    {
      eval;
      prefetch = Some prefetch;
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

let of_epoly ?(name = "poly") ~gdeg ~f0 ~g0 p =
  if Epoly.degree p > gdeg then
    invalid_arg "Evaluator.of_epoly: degree exceeds homogeneity degree";
  let counter = Atomic.make 0 in
  let eval ~f ~g s =
    Atomic.incr counter;
    Obs.incr Obs.evaluator_calls;
    (* Scale coefficients exactly: p_i -> p_i f^i g^(gdeg-i), then Horner. *)
    let coeffs = Epoly.coeffs p in
    let scaled =
      Array.mapi
        (fun i c ->
          Ef.mul c (Ef.mul (Ef.float_pow_int f i) (Ef.float_pow_int g (gdeg - i))))
        coeffs
    in
    Epoly.eval (Epoly.of_coeffs scaled) (Ec.of_complex s)
  in
  {
    eval;
    prefetch = None;
    gdeg;
    order_bound = Epoly.degree p;
    f0;
    g0;
    name;
    counter;
    guarded = false;
  }

let eval_count t = Atomic.get t.counter
