module Ec = Symref_numeric.Extcomplex
module Obs = Symref_obs.Metrics
module Tr = Symref_obs.Trace
module Inject = Symref_fault.Inject

exception Singular

type builder = { n : int; rows : (int, Complex.t) Hashtbl.t array }

let create n =
  if n < 0 then invalid_arg "Sparse.create: negative dimension";
  { n; rows = Array.init n (fun _ -> Hashtbl.create 8) }

let add b i j v =
  if i < 0 || i >= b.n || j < 0 || j >= b.n then
    invalid_arg "Sparse.add: index out of range";
  let row = b.rows.(i) in
  match Hashtbl.find_opt row j with
  | None ->
      (* Component tests instead of the polymorphic [<> Complex.zero]: one
         [caml_compare] call per stamped entry, for two float compares.
         Identical semantics ([-0.] equal, NaN entries kept either way). *)
      if v.Complex.re <> 0. || v.Complex.im <> 0. then Hashtbl.replace row j v
  | Some old -> Hashtbl.replace row j (Complex.add old v)

let dimension b = b.n
let nnz b = Array.fold_left (fun acc r -> acc + Hashtbl.length r) 0 b.rows

let to_dense b =
  let a = Array.make_matrix b.n b.n Complex.zero in
  Array.iteri (fun i row -> Hashtbl.iter (fun j v -> a.(i).(j) <- v) row) b.rows;
  a

let clear b = Array.iter Hashtbl.reset b.rows

type factor = {
  n : int;
  pivot_rows : int array; (* step -> original row *)
  pivot_cols : int array; (* step -> original column *)
  pivots : Complex.t array;
  lower : (int * int * Complex.t) array; (* (row, step, multiplier), in order *)
  upper : (int * Complex.t) array array; (* step -> off-pivot U entries (orig col, v) *)
  det : Ec.t;
  fill_in : int;
  singular : bool;
}

(* Parity of the permutation sending position k to perm.(k). *)
let permutation_sign perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  let sign = ref 1 in
  for k = 0 to n - 1 do
    if not seen.(k) then begin
      (* Walk the cycle containing k; a cycle of length L contributes
         (-1)^(L-1). *)
      let len = ref 0 and i = ref k in
      while not seen.(!i) do
        seen.(!i) <- true;
        incr len;
        i := perm.(!i)
      done;
      if !len mod 2 = 0 then sign := - !sign
    end
  done;
  !sign

(* The forced-singular fault: what {!factor} would return on a matrix with
   no admissible pivot at all.  Exercises every consumer's singular path
   (Cramer numerators, Interp's perturbed-point retry) without a contrived
   input matrix. *)
let injected_singular n =
  {
    n;
    pivot_rows = Array.make n (-1);
    pivot_cols = Array.make n (-1);
    pivots = Array.make n Complex.zero;
    lower = [||];
    upper = Array.make n [||];
    det = Ec.zero;
    fill_in = 0;
    singular = true;
  }

(* One step's pivot choice over the active submatrix: Markowitz search
   restricted to a few sparsest candidate rows, the classical
   circuit-simulator compromise between fill-in optimality and search cost
   (a full scan would dominate the factorisation).  An entry is a
   candidate when it passes the threshold test against its row's largest
   active entry; the smallest Markowitz count [(r-1)(c-1)] wins, ties to
   the larger magnitude.  [None] when no active entry is admissible.
   [factor] and [symbolic] both pivot here, so a recorded pattern is the
   pivot sequence a full factorisation would choose. *)
let max_candidate_rows = 8

let markowitz_pivot ~pivot_threshold rows ~row_active ~col_active ~row_count
    ~col_count =
  let n = Array.length rows in
  let best = ref None in
  let search_row i =
    let row = rows.(i) in
    let rmax = ref 0. in
    Hashtbl.iter
      (fun j v ->
        if col_active.(j) then begin
          let m = Complex.norm v in
          if m > !rmax then rmax := m
        end)
      row;
    if !rmax > 0. then
      Hashtbl.iter
        (fun j v ->
          if col_active.(j) then begin
            let m = Complex.norm v in
            if m >= pivot_threshold *. !rmax then begin
              let cost = (row_count.(i) - 1) * (col_count.(j) - 1) in
              let better =
                match !best with
                | None -> true
                | Some (_, _, _, bcost, bmag) -> cost < bcost || (cost = bcost && m > bmag)
              in
              if better then best := Some (i, j, v, cost, m)
            end
          end)
        row
  in
  (* Examine only the sparsest active rows (counts within one of the
     minimum), allocation-free. *)
  let min_count = ref max_int in
  for i = 0 to n - 1 do
    if row_active.(i) && row_count.(i) > 0 && row_count.(i) < !min_count then
      min_count := row_count.(i)
  done;
  if !min_count < max_int then begin
    let examined = ref 0 in
    let i = ref 0 in
    while !examined < max_candidate_rows && !i < n do
      if row_active.(!i) && row_count.(!i) > 0 && row_count.(!i) <= !min_count + 1 then begin
        search_row !i;
        incr examined
      end;
      incr i
    done;
    (* Threshold pivoting can reject every entry of the sparse candidate
       rows; fall back to a full search before declaring singularity. *)
    if !best = None then
      for i = 0 to n - 1 do
        if row_active.(i) && row_count.(i) > 0 then search_row i
      done
  end;
  Option.map (fun (i, j, v, _, _) -> (i, j, v)) !best

let factor ?(pivot_threshold = 0.1) (b : builder) =
  Obs.incr Obs.lu_factor;
  Tr.span ~cat:"lu" "lu.factor" @@ fun () ->
  if Inject.fire Inject.sparse_singular then injected_singular b.n
  else
  let n = b.n in
  let rows = Array.map Hashtbl.copy b.rows in
  let row_active = Array.make n true and col_active = Array.make n true in
  (* Row/column occupancy counts over the active submatrix, incremental. *)
  let col_count = Array.make n 0 in
  let row_count = Array.make n 0 in
  Array.iteri
    (fun i row ->
      row_count.(i) <- Hashtbl.length row;
      Hashtbl.iter (fun j _ -> col_count.(j) <- col_count.(j) + 1) row)
    rows;
  let pivot_rows = Array.make n (-1)
  and pivot_cols = Array.make n (-1)
  and pivots = Array.make n Complex.zero in
  let lower = ref [] and upper = Array.make n [||] in
  let det_mag = ref Ec.one in
  let fill = ref 0 in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       match
         markowitz_pivot ~pivot_threshold rows ~row_active ~col_active ~row_count ~col_count
       with
       | None ->
           singular := true;
           raise Exit
       | Some (pi, pj, pv) ->
           pivot_rows.(k) <- pi;
           pivot_cols.(k) <- pj;
           pivots.(k) <- pv;
           det_mag := Ec.mul !det_mag (Ec.of_complex pv);
           row_active.(pi) <- false;
           col_active.(pj) <- false;
           Hashtbl.iter (fun j _ -> col_count.(j) <- col_count.(j) - 1) rows.(pi);
           (* Snapshot the U row (active columns other than the pivot). *)
           let u = ref [] in
           Hashtbl.iter
             (fun j v -> if j <> pj && col_active.(j) then u := (j, v) :: !u)
             rows.(pi);
           upper.(k) <- Array.of_list !u;
           (* Eliminate the pivot column from the remaining active rows. *)
           for i = 0 to n - 1 do
             if row_active.(i) then
               match Hashtbl.find_opt rows.(i) pj with
               | None -> ()
               | Some v ->
                   Hashtbl.remove rows.(i) pj;
                   col_count.(pj) <- col_count.(pj) - 1;
                   row_count.(i) <- row_count.(i) - 1;
                   let m = Complex.div v pv in
                   lower := (i, k, m) :: !lower;
                   Array.iter
                     (fun (j, u) ->
                       let upd = Complex.neg (Complex.mul m u) in
                       match Hashtbl.find_opt rows.(i) j with
                       | None ->
                           (* Innermost loop: component tests instead of a
                              polymorphic-compare call, same semantics. *)
                           if upd.Complex.re <> 0. || upd.Complex.im <> 0.
                           then begin
                             Hashtbl.replace rows.(i) j upd;
                             col_count.(j) <- col_count.(j) + 1;
                             row_count.(i) <- row_count.(i) + 1;
                             incr fill
                           end
                       | Some w ->
                           let nv = Complex.add w upd in
                           if nv.Complex.re = 0. && nv.Complex.im = 0. then begin
                             (* Exact cancellation: keeping a stored zero
                                would inflate the Markowitz row/column
                                counts and skew later pivot choices. *)
                             Hashtbl.remove rows.(i) j;
                             col_count.(j) <- col_count.(j) - 1;
                             row_count.(i) <- row_count.(i) - 1
                           end
                           else Hashtbl.replace rows.(i) j nv)
                     upper.(k)
           done
     done
   with Exit -> ());
  let det =
    if !singular then Ec.zero
    else
      let sr = permutation_sign pivot_rows and sc = permutation_sign pivot_cols in
      if sr * sc < 0 then Ec.neg !det_mag else !det_mag
  in
  {
    n;
    pivot_rows;
    pivot_cols;
    pivots;
    lower = Array.of_list (List.rev !lower);
    upper;
    det;
    fill_in = !fill;
    singular = !singular;
  }

let det f = f.det
let fill_in f = f.fill_in

(* --- Symbolic / numeric split ---------------------------------------------

   A [pattern] is the value-independent half of one factorisation: the pivot
   order, the slot layout (one flat-array slot per matrix position that is
   ever touched, fill-ins included) and the elimination program as index
   arrays.  [refactor] replays the program on fresh numeric values with no
   hashtable traffic at all: the inner loop is pure unboxed float-array
   arithmetic.  The classic SPICE/KLU trick — the sparsity structure of
   [G + sC] is the same at every interpolation point, so the ordering work
   is paid once per scale pair instead of once per point. *)

module Kernel = Kernel

(* The slot layout and elimination program live in {!Kernel.program} — the
   batched engine replays them without this module — while the pattern
   keeps the coordinate list that defines {!refactor}'s [values] order. *)
type pattern = {
  prog : Kernel.program;
  coo_rows : int array;  (* values index -> original row *)
  coo_cols : int array;  (* values index -> original column *)
}

let pattern_program p = p.prog
let pattern_dimension p = p.prog.Kernel.n
let pattern_nnz p = Array.length p.coo_rows
let pattern_coords p = Array.init (Array.length p.coo_rows) (fun e -> (p.coo_rows.(e), p.coo_cols.(e)))
let pattern_stats p = (p.prog.Kernel.nslots, p.prog.Kernel.fill)

(* Symbolic analysis: one full Markowitz factorisation that additionally
   records the slot layout and elimination program.  Unlike {!factor}, exact
   numeric cancellations keep their (zero-valued) entry: the pattern must
   stay structurally valid at evaluation points where the cancellation does
   not happen.  Returns [None] when the matrix is singular at the analysed
   point (no complete pivot sequence exists to record). *)
let symbolic ?(pivot_threshold = 0.1) (b : builder) =
  Obs.incr Obs.lu_symbolic;
  Tr.span ~cat:"lu" "lu.symbolic" @@ fun () ->
  let n = b.n in
  (* Per-row value and slot maps for the elimination workspace. *)
  let rows = Array.map Hashtbl.copy b.rows in
  let slots = Array.init n (fun _ -> Hashtbl.create 8) in
  let next_slot = ref 0 in
  let coo_rows = ref [] and coo_cols = ref [] and coo_slot = ref [] in
  Array.iteri
    (fun i row ->
      Hashtbl.iter
        (fun j _ ->
          Hashtbl.replace slots.(i) j !next_slot;
          coo_rows := i :: !coo_rows;
          coo_cols := j :: !coo_cols;
          coo_slot := !next_slot :: !coo_slot;
          incr next_slot)
        row)
    b.rows;
  let row_active = Array.make n true and col_active = Array.make n true in
  let col_count = Array.make n 0 in
  let row_count = Array.make n 0 in
  Array.iteri
    (fun i row ->
      row_count.(i) <- Hashtbl.length row;
      Hashtbl.iter (fun j _ -> col_count.(j) <- col_count.(j) + 1) row)
    rows;
  let pivot_rows = Array.make n (-1)
  and pivot_cols = Array.make n (-1)
  and pivots = Array.make n Complex.zero
  and pivot_slot = Array.make n (-1) in
  let u_cols = Array.make n [||]
  and u_slots = Array.make n [||]
  and elim_row = Array.make n [||]
  and elim_a_slot = Array.make n [||]
  and elim_upd = Array.make n [||] in
  let lower = ref [] and upper = Array.make n [||] in
  let lower_len = ref 0 in
  let det_mag = ref Ec.one in
  let fill = ref 0 in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       match
         markowitz_pivot ~pivot_threshold rows ~row_active ~col_active ~row_count ~col_count
       with
       | None ->
           singular := true;
           raise Exit
       | Some (pi, pj, pv) ->
           pivot_rows.(k) <- pi;
           pivot_cols.(k) <- pj;
           pivots.(k) <- pv;
           pivot_slot.(k) <- Hashtbl.find slots.(pi) pj;
           det_mag := Ec.mul !det_mag (Ec.of_complex pv);
           row_active.(pi) <- false;
           col_active.(pj) <- false;
           Hashtbl.iter (fun j _ -> col_count.(j) <- col_count.(j) - 1) rows.(pi);
           let u = ref [] in
           Hashtbl.iter
             (fun j v ->
               if j <> pj && col_active.(j) then
                 u := (j, v, Hashtbl.find slots.(pi) j) :: !u)
             rows.(pi);
           let u = Array.of_list !u in
           upper.(k) <- Array.map (fun (j, v, _) -> (j, v)) u;
           u_cols.(k) <- Array.map (fun (j, _, _) -> j) u;
           u_slots.(k) <- Array.map (fun (_, _, s) -> s) u;
           let e_row = ref [] and e_a = ref [] and e_upd = ref [] in
           for i = 0 to n - 1 do
             if row_active.(i) then
               match Hashtbl.find_opt rows.(i) pj with
               | None -> ()
               | Some v ->
                   Hashtbl.remove rows.(i) pj;
                   col_count.(pj) <- col_count.(pj) - 1;
                   row_count.(i) <- row_count.(i) - 1;
                   let m = Complex.div v pv in
                   lower := (i, k, m) :: !lower;
                   incr lower_len;
                   e_row := i :: !e_row;
                   e_a := Hashtbl.find slots.(i) pj :: !e_a;
                   let upd_slots =
                     Array.map
                       (fun (j, u, _) ->
                         let upd = Complex.neg (Complex.mul m u) in
                         match Hashtbl.find_opt rows.(i) j with
                         | None ->
                             (* Structural fill-in: always materialise the
                                slot, even when the numeric update happens
                                to vanish at this point. *)
                             Hashtbl.replace rows.(i) j upd;
                             let s = !next_slot in
                             incr next_slot;
                             Hashtbl.replace slots.(i) j s;
                             col_count.(j) <- col_count.(j) + 1;
                             row_count.(i) <- row_count.(i) + 1;
                             incr fill;
                             s
                         | Some w ->
                             Hashtbl.replace rows.(i) j (Complex.add w upd);
                             Hashtbl.find slots.(i) j)
                       u
                   in
                   e_upd := upd_slots :: !e_upd
           done;
           elim_row.(k) <- Array.of_list (List.rev !e_row);
           elim_a_slot.(k) <- Array.of_list (List.rev !e_a);
           elim_upd.(k) <- Array.of_list (List.rev !e_upd)
     done
   with Exit -> ());
  if !singular then None
  else begin
    let sr = permutation_sign pivot_rows and sc = permutation_sign pivot_cols in
    let sign = sr * sc in
    let det = if sign < 0 then Ec.neg !det_mag else !det_mag in
    let fct =
      {
        n;
        pivot_rows;
        pivot_cols;
        pivots;
        lower = Array.of_list (List.rev !lower);
        upper;
        det;
        fill_in = !fill;
        singular = false;
      }
    in
    let prog =
      {
        Kernel.n;
        nslots = !next_slot;
        sign;
        threshold = pivot_threshold;
        coo_slot = Array.of_list (List.rev !coo_slot);
        pivot_rows;
        pivot_cols;
        pivot_slot;
        u_cols;
        u_slots;
        elim_row;
        elim_a_slot;
        elim_upd;
        lower_len = !lower_len;
        fill = !fill;
      }
    in
    let pat =
      {
        prog;
        coo_rows = Array.of_list (List.rev !coo_rows);
        coo_cols = Array.of_list (List.rev !coo_cols);
      }
    in
    Some (pat, fct)
  end

(* Numeric refactorisation: replay the recorded elimination program on new
   values.  Returns [None] — caller falls back to a full Markowitz
   factorisation — whenever a reused pivot is exactly zero or falls below the
   threshold-pivoting floor relative to its remaining row, so accuracy never
   regresses versus from-scratch pivoting.  No production path calls it: it
   is the boxed reference that {!Kernel.Batch} must match bit for bit. *)
let refactor (p : pattern) (values : Complex.t array) =
  let q = p.prog in
  if Array.length values <> Array.length q.Kernel.coo_slot then
    invalid_arg "Sparse.refactor: values length does not match pattern";
  Tr.span ~cat:"lu" "lu.refactor" @@ fun () ->
  if Inject.fire Inject.sparse_singular then None
    (* as if a reused pivot hit the threshold floor: caller falls back *)
  else
  let re = Array.make q.Kernel.nslots 0. and im = Array.make q.Kernel.nslots 0. in
  Array.iteri
    (fun e (v : Complex.t) ->
      let s = q.Kernel.coo_slot.(e) in
      re.(s) <- v.Complex.re;
      im.(s) <- v.Complex.im)
    values;
  let n = q.Kernel.n in
  let lower = Array.make q.Kernel.lower_len (0, 0, Complex.zero) in
  let lpos = ref 0 in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let step = !k in
    let ps = q.Kernel.pivot_slot.(step) in
    let pr = re.(ps) and pim = im.(ps) in
    let pmag = Float.hypot pr pim in
    (* Threshold floor: the pivot must still dominate its remaining row the
       way Markowitz + threshold pivoting would have required. *)
    let us = q.Kernel.u_slots.(step) in
    let rmax = ref pmag in
    Array.iter
      (fun s ->
        let m = Float.hypot re.(s) im.(s) in
        if m > !rmax then rmax := m)
      us;
    (* A non-finite pivot (NaN-contaminated values) must also bail out: NaN
       compares false against the floor, and the full search degrades to a
       clean singular result where the replay would feed NaN downstream. *)
    if pmag = 0. || (not (Float.is_finite pmag)) || pmag < q.Kernel.threshold *. !rmax
    then ok := false
    else begin
      let den = (pr *. pr) +. (pim *. pim) in
      let targets = q.Kernel.elim_row.(step) in
      let a_slots = q.Kernel.elim_a_slot.(step) in
      let upds = q.Kernel.elim_upd.(step) in
      for t = 0 to Array.length targets - 1 do
        let a = a_slots.(t) in
        let ar = re.(a) and ai = im.(a) in
        (* m = a / pivot, unboxed. *)
        let mr = ((ar *. pr) +. (ai *. pim)) /. den
        and mi = ((ai *. pr) -. (ar *. pim)) /. den in
        lower.(!lpos) <- (targets.(t), step, { Complex.re = mr; im = mi });
        incr lpos;
        let upd = upds.(t) in
        for idx = 0 to Array.length us - 1 do
          let s = us.(idx) in
          let ur = re.(s) and ui = im.(s) in
          let d = upd.(idx) in
          re.(d) <- re.(d) -. ((mr *. ur) -. (mi *. ui));
          im.(d) <- im.(d) -. ((mr *. ui) +. (mi *. ur))
        done
      done;
      incr k
    end
  done;
  if not !ok then begin
    (* The caller will redo a full Markowitz search from scratch. *)
    Obs.incr Obs.refactor_fallbacks;
    None
  end
  else begin
    Obs.incr Obs.lu_refactor;
    (* Pivot-row slots freeze at their own step, so the final workspace holds
       exactly the U snapshots and pivots the factor needs. *)
    let pivots =
      Array.init n (fun k ->
          let s = q.Kernel.pivot_slot.(k) in
          { Complex.re = re.(s); im = im.(s) })
    in
    let upper =
      Array.init n (fun k ->
          let cols = q.Kernel.u_cols.(k) and slots = q.Kernel.u_slots.(k) in
          Array.init (Array.length cols) (fun idx ->
              let s = slots.(idx) in
              (cols.(idx), { Complex.re = re.(s); im = im.(s) })))
    in
    let det_mag =
      Array.fold_left (fun acc pv -> Ec.mul acc (Ec.of_complex pv)) Ec.one pivots
    in
    let det = if q.Kernel.sign < 0 then Ec.neg det_mag else det_mag in
    Some
      {
        n;
        pivot_rows = q.Kernel.pivot_rows;
        pivot_cols = q.Kernel.pivot_cols;
        pivots;
        lower;
        upper;
        det;
        fill_in = q.Kernel.fill;
        singular = false;
      }
  end

(* With row/column pivot orders P, Q and the stored unit-lower multipliers L
   and upper rows U (step coordinates: M = P A Q = L U), the transpose system
   A^T x = b becomes U^T L^T (P x) = Q^T b: a forward pass through U^T (using
   the inverse column-pivot map), a reverse replay of the multipliers for
   L^T, and the row-pivot scatter. *)
let solve_transpose f b =
  if Array.length b <> f.n then
    invalid_arg "Sparse.solve_transpose: dimension mismatch";
  if f.singular then raise Singular;
  let n = f.n in
  let step_of_col = Array.make n 0 in
  Array.iteri (fun k c -> step_of_col.(c) <- k) f.pivot_cols;
  let step_of_row = Array.make n 0 in
  Array.iteri (fun k r -> step_of_row.(r) <- k) f.pivot_rows;
  (* Forward: U^T w = Q^T b, scattering each solved w_k through U's row k. *)
  let w = Array.init n (fun k -> b.(f.pivot_cols.(k))) in
  for k = 0 to n - 1 do
    w.(k) <- Complex.div w.(k) f.pivots.(k);
    Array.iter
      (fun (j, u) ->
        let s = step_of_col.(j) in
        w.(s) <- Complex.sub w.(s) (Complex.mul u w.(k)))
      f.upper.(k)
  done;
  (* Backward: L^T v = w, replaying the multipliers in reverse. *)
  for idx = Array.length f.lower - 1 downto 0 do
    let i, k, m = f.lower.(idx) in
    let s = step_of_row.(i) in
    w.(k) <- Complex.sub w.(k) (Complex.mul m w.(s))
  done;
  (* P x = v. *)
  let x = Array.make n Complex.zero in
  Array.iteri (fun k r -> x.(r) <- w.(k)) f.pivot_rows;
  x

let solve f b =
  if Array.length b <> f.n then invalid_arg "Sparse.solve: dimension mismatch";
  if f.singular then raise Singular;
  let y = Array.copy b in
  (* Forward elimination replay: multipliers were recorded in order. *)
  Array.iter
    (fun (i, k, m) -> y.(i) <- Complex.sub y.(i) (Complex.mul m y.(f.pivot_rows.(k))))
    f.lower;
  let x = Array.make f.n Complex.zero in
  for k = f.n - 1 downto 0 do
    let acc = ref y.(f.pivot_rows.(k)) in
    Array.iter
      (fun (j, u) -> acc := Complex.sub !acc (Complex.mul u x.(j)))
      f.upper.(k);
    x.(f.pivot_cols.(k)) <- Complex.div !acc f.pivots.(k)
  done;
  x
