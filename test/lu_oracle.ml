(* The sparse LU as it stood before the elimination workspace replaced its
   per-row hash tables: [factor], [symbolic] and [markowitz_pivot] copied
   verbatim from lib/linalg/sparse.ml, with the builder, [solve] and
   [solve_transpose] they need.  Only the counter, trace-span and
   fault-injection lines are left out, so running the oracle touches no
   global state.  [Test_lu_oracle] checks the current [Sparse] against it:
   the same pivot sequence, tie order included, the same program and the
   same bits.  Do not edit the algorithm here; it is the reference. *)

module Ec = Symref_numeric.Extcomplex
module Kernel = Symref_linalg.Kernel

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

type pattern = {
  prog : Kernel.program;
  coo_rows : int array;  (* values index -> original row *)
  coo_cols : int array;  (* values index -> original column *)
  coo_slot : int array;  (* values index -> slot (the scatter map) *)
}


(* Symbolic analysis: one full Markowitz factorisation that additionally
   records the slot layout and elimination program.  Unlike {!factor}, exact
   numeric cancellations keep their (zero-valued) entry: the pattern must
   stay structurally valid at evaluation points where the cancellation does
   not happen.  Returns [None] when the matrix is singular at the analysed
   point (no complete pivot sequence exists to record). *)
let symbolic ?(pivot_threshold = 0.1) (b : builder) =
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
    (* The per-step arrays end to end: the program's flat streams. *)
    let starts steps =
      let off = Array.make (n + 1) 0 in
      Array.iteri (fun k a -> off.(k + 1) <- off.(k) + Array.length a) steps;
      off
    in
    let flat steps = Array.concat (Array.to_list steps) in
    let prog =
      {
        Kernel.n;
        nslots = !next_slot;
        sign;
        threshold = pivot_threshold;
        pivot_row = pivot_rows;
        pivot_col = pivot_cols;
        pivot_slot;
        u_start = starts u_slots;
        u_slot = flat u_slots;
        u_col = flat u_cols;
        elim_start = starts elim_row;
        elim_row = flat elim_row;
        elim_a_slot = flat elim_a_slot;
        elim_upd = flat (Array.map flat elim_upd);
        fill = !fill;
      }
    in
    let pat =
      {
        prog;
        coo_rows = Array.of_list (List.rev !coo_rows);
        coo_cols = Array.of_list (List.rev !coo_cols);
        coo_slot = Array.of_list (List.rev !coo_slot);
      }
    in
    Some (pat, fct)
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
