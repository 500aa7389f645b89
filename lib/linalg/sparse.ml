module Ec = Symref_numeric.Extcomplex
module Obs = Symref_obs.Metrics
module Tr = Symref_obs.Trace
module Inject = Symref_fault.Inject

exception Singular

type builder = { n : int; rows : (int, Complex.t) Hashtbl.t array }

(* The elimination starts from each row's visit order, so the rows are
   unseeded tables even when OCAMLRUNPARAM asks for randomized ones: with a
   random seed, the pivot ties and U orders, and so the low bits of every
   result, changed from run to run. *)
let create n =
  if n < 0 then invalid_arg "Sparse.create: negative dimension";
  { n; rows = Array.init n (fun _ -> Hashtbl.create ~random:false 8) }

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

(* --- Symbolic / numeric split ---------------------------------------------

   A [pattern] is the value-independent half of one factorisation: the pivot
   order, the slot layout (one flat-array slot per matrix position that is
   ever touched, fill-ins included) and the elimination program as index
   streams.  [refactor] replays the program on fresh numeric values with no
   search and no workspace bookkeeping: the inner loop is pure unboxed
   float-array arithmetic.  The classic SPICE/KLU trick — the sparsity
   structure of [G + sC] is the same at every interpolation point of every
   pass, so the ordering work is paid once per circuit (and once more per
   scale pair whose values trip the circuit program's threshold floor)
   instead of once per point. *)

(* The slot layout and elimination program live in {!Kernel.program} — the
   batched engine replays them without this module — while the pattern
   keeps the coordinates that define {!refactor}'s [values] order: row by
   row, so a row's entries are one run of [coo_cols].  Entry [e] of that
   order is slot [e]. *)
type pattern = {
  prog : Kernel.program;
  coo_start : int array;  (* row -> first values index of its run; n + 1 *)
  coo_cols : int array;  (* values index -> original column *)
}

let pattern_program p = p.prog
let pattern_dimension p = p.prog.Kernel.n
let pattern_nnz p = Array.length p.coo_cols

let pattern_coords p =
  let coords = Array.make (pattern_nnz p) (0, 0) in
  for i = 0 to pattern_dimension p - 1 do
    for e = p.coo_start.(i) to p.coo_start.(i + 1) - 1 do
      coords.(e) <- (i, p.coo_cols.(e))
    done
  done;
  coords

let pattern_slot p i j =
  let stop = p.coo_start.(i + 1) in
  let rec find e =
    if e = stop then -1 else if p.coo_cols.(e) = j then e else find (e + 1)
  in
  find p.coo_start.(i)

let pattern_stats p = (p.prog.Kernel.nslots, p.prog.Kernel.fill)

(* A growable int stream, for the program's streams while [symbolic]
   records them (OCaml 5.1 has no [Dynarray]). *)
type stream = { mutable data : int array; mutable len : int }

let stream () = { data = [||]; len = 0 }

let append st v =
  if st.len = Array.length st.data then begin
    let data = Array.make (Int.max 16 (2 * st.len)) 0 in
    Array.blit st.data 0 data 0 st.len;
    st.data <- data
  end;
  st.data.(st.len) <- v;
  st.len <- st.len + 1

let contents st = Array.sub st.data 0 st.len

(* --- The elimination workspace --------------------------------------------

   [factor] and [symbolic] run one right-looking Markowitz elimination over
   this workspace.  A row keeps its entries as parallel arrays (column,
   value, cached magnitude, insertion stamp, slot) in no particular order,
   and a column the active rows that hold it, so a step finds its targets
   without scanning every row and updates a target through a dense
   column -> entry map: no hash table, and nothing boxed per update.

   Tie order.  The pivot sequence, and the order of each U row that back
   substitution sums, were first defined by per-row [Hashtbl] workspaces,
   and every recorded output holds the bits of that order.  So a row is
   visited in the order [Hashtbl.iter] had: buckets
   [Hashtbl.hash j land (buckets - 1)] ascending, and within a bucket the
   most recently inserted column first.  A row starts with its builder
   row's visit order and bucket count (16, doubled whenever an insertion
   leaves more than twice as many entries as buckets, never shrunk); a
   value update keeps its entry's place, and a column removed by an exact
   cancellation and filled again later counts as new.  The stamp carries
   the insertion order: builder entries get 0, -1, -2, ... in visit order,
   fills 1, 2, 3, ... as they happen. *)
type ws = {
  hash : int array;  (* column -> [Hashtbl.hash] of it *)
  len : int array;  (* row -> entries *)
  buckets : int array;  (* row -> bucket count of its visit order *)
  cols : int array array;  (* row -> entry -> column *)
  re : float array array;
  im : float array array;
  mag : float array array;  (* [Float.hypot re im], i.e. [Complex.norm] *)
  stamp : int array array;  (* larger = inserted later *)
  slot : int array array;  (* program slot *)
  col_rows : int array array;  (* column -> active rows holding it *)
  col_len : int array;
  pos : int array;  (* column -> entry in the target being updated, or -1 *)
  order : int array;  (* scratch: the pivot row's U entries *)
  mutable clock : int;
  (* The pivot search's best candidate; one float cell, since a float
     field of this record would box on every store. *)
  mutable best_row : int;
  mutable best_pos : int;
  mutable best_cost : int;
  best_mag : float array;
}

(* Room for [need] entries in row [i]. *)
let reserve w i need =
  let cap = Array.length w.cols.(i) in
  if need > cap then begin
    let cap = Int.max need (2 * cap) and l = w.len.(i) in
    let ints a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 l;
      b
    and floats a =
      let b = Array.make cap 0. in
      Array.blit a 0 b 0 l;
      b
    in
    w.cols.(i) <- ints w.cols.(i);
    w.stamp.(i) <- ints w.stamp.(i);
    w.slot.(i) <- ints w.slot.(i);
    w.re.(i) <- floats w.re.(i);
    w.im.(i) <- floats w.im.(i);
    w.mag.(i) <- floats w.mag.(i)
  end

let col_push w j i =
  let l = w.col_len.(j) in
  if l = Array.length w.col_rows.(j) then begin
    let rows = Array.make ((2 * l) + 4) 0 in
    Array.blit w.col_rows.(j) 0 rows 0 l;
    w.col_rows.(j) <- rows
  end;
  w.col_rows.(j).(l) <- i;
  w.col_len.(j) <- l + 1

let col_drop w j i =
  let rows = w.col_rows.(j) and l = w.col_len.(j) - 1 in
  let k = ref 0 in
  while rows.(!k) <> i do
    incr k
  done;
  rows.(!k) <- rows.(l);
  w.col_len.(j) <- l

(* Append column [j] to row [i] (room reserved by the caller) and return
   its entry; the bucket count doubles as [Hashtbl.replace]'s resize
   would. *)
let push w i j vre vim ~stamp ~slot =
  let p = w.len.(i) in
  w.cols.(i).(p) <- j;
  w.re.(i).(p) <- vre;
  w.im.(i).(p) <- vim;
  w.mag.(i).(p) <- Float.hypot vre vim;
  w.stamp.(i).(p) <- stamp;
  w.slot.(i).(p) <- slot;
  w.len.(i) <- p + 1;
  if p + 1 > 2 * w.buckets.(i) then w.buckets.(i) <- 2 * w.buckets.(i);
  col_push w j i;
  p

(* Remove entry [p] of row [i]: the last entry takes its place, and [pos]
   follows it when the row is the one being updated. *)
let remove w i p =
  let l = w.len.(i) - 1 and cs = w.cols.(i) in
  w.pos.(cs.(p)) <- -1;
  if p < l then begin
    let j = cs.(l) in
    cs.(p) <- j;
    w.re.(i).(p) <- w.re.(i).(l);
    w.im.(i).(p) <- w.im.(i).(l);
    w.mag.(i).(p) <- w.mag.(i).(l);
    w.stamp.(i).(p) <- w.stamp.(i).(l);
    w.slot.(i).(p) <- w.slot.(i).(l);
    if w.pos.(j) >= 0 then w.pos.(j) <- p
  end;
  w.len.(i) <- l

let find_col w i j =
  let cs = w.cols.(i) in
  let p = ref 0 in
  while cs.(!p) <> j do
    incr p
  done;
  !p

(* Whether [Hashtbl.iter] would have visited entry [p] of row [i] before
   entry [q]. *)
let visits_before w i p q =
  let mask = w.buckets.(i) - 1 and cs = w.cols.(i) in
  let bp = w.hash.(cs.(p)) land mask and bq = w.hash.(cs.(q)) land mask in
  bp < bq || (bp = bq && w.stamp.(i).(p) > w.stamp.(i).(q))

(* The builder's rows, read in their visit order.  Slots number the
   entries in that order, row by row: the pattern's [values] order. *)
let workspace (b : builder) =
  let n = b.n in
  let room i = Hashtbl.length b.rows.(i) + 4 in
  let w =
    {
      hash = Array.init n Hashtbl.hash;
      len = Array.make n 0;
      buckets = Array.make n 16;
      cols = Array.init n (fun i -> Array.make (room i) 0);
      re = Array.init n (fun i -> Array.make (room i) 0.);
      im = Array.init n (fun i -> Array.make (room i) 0.);
      mag = Array.init n (fun i -> Array.make (room i) 0.);
      stamp = Array.init n (fun i -> Array.make (room i) 0);
      slot = Array.init n (fun i -> Array.make (room i) 0);
      col_rows = Array.make n [||];
      col_len = Array.make n 0;
      pos = Array.make n (-1);
      order = Array.make n 0;
      clock = 1;
      best_row = -1;
      best_pos = 0;
      best_cost = 0;
      best_mag = [| 0. |];
    }
  in
  let slot = ref 0 in
  Array.iteri
    (fun i row ->
      let visit = ref 0 in
      Hashtbl.iter
        (fun j (v : Complex.t) ->
          ignore (push w i j v.Complex.re v.Complex.im ~stamp:!visit ~slot:!slot);
          decr visit;
          incr slot)
        row)
    b.rows;
  w

(* One step's pivot choice over the active submatrix: Markowitz search
   restricted to a few sparsest candidate rows, the classical
   circuit-simulator compromise between fill-in optimality and search cost
   (a full scan would dominate the factorisation).  An entry is a
   candidate when it passes the threshold test against its row's largest
   entry (an active row holds active columns only); the smallest Markowitz
   count [(r-1)(c-1)] wins, then the larger magnitude, then the first
   candidate met: rows ascending, a row's entries in visit order.  [false]
   when no active entry is admissible.  [factor] and [symbolic] both pivot
   here, so a recorded pattern is the pivot sequence a full factorisation
   would choose. *)
let max_candidate_rows = 8

let search_row w ~pivot_threshold i =
  let l = w.len.(i) and mg = w.mag.(i) and cs = w.cols.(i) in
  let rmax = ref 0. in
  for p = 0 to l - 1 do
    if mg.(p) > !rmax then rmax := mg.(p)
  done;
  if !rmax > 0. then
    for p = 0 to l - 1 do
      let m = mg.(p) in
      if m >= pivot_threshold *. !rmax then begin
        let cost = (l - 1) * (w.col_len.(cs.(p)) - 1) in
        let bmag = w.best_mag.(0) in
        if
          w.best_row < 0 || cost < w.best_cost
          || cost = w.best_cost
             && (m > bmag
                || (m = bmag && w.best_row = i && visits_before w i p w.best_pos))
        then begin
          w.best_row <- i;
          w.best_pos <- p;
          w.best_cost <- cost;
          w.best_mag.(0) <- m
        end
      end
    done

let markowitz_pivot w ~pivot_threshold ~row_active =
  let n = Array.length row_active in
  w.best_row <- -1;
  (* Examine only the sparsest active rows (counts within one of the
     minimum), allocation-free. *)
  let min_count = ref max_int in
  for i = 0 to n - 1 do
    if row_active.(i) && w.len.(i) > 0 && w.len.(i) < !min_count then
      min_count := w.len.(i)
  done;
  if !min_count < max_int then begin
    let examined = ref 0 in
    let i = ref 0 in
    while !examined < max_candidate_rows && !i < n do
      if row_active.(!i) && w.len.(!i) > 0 && w.len.(!i) <= !min_count + 1 then begin
        search_row w ~pivot_threshold !i;
        incr examined
      end;
      incr i
    done;
    (* Threshold pivoting can reject every entry of the sparse candidate
       rows; fall back to a full search before declaring singularity. *)
    if w.best_row < 0 then
      for i = 0 to n - 1 do
        if row_active.(i) && w.len.(i) > 0 then search_row w ~pivot_threshold i
      done
  end;
  w.best_row >= 0

(* The pivot row's entries other than entry [pp], into [w.order] in
   reverse visit order: the U row, in the order back substitution sums it.
   Returns their count. *)
let u_order w i pp =
  let order = w.order in
  let k = ref 0 in
  for p = 0 to w.len.(i) - 1 do
    if p <> pp then begin
      let s = ref !k in
      while !s > 0 && visits_before w i order.(!s - 1) p do
        order.(!s) <- order.(!s - 1);
        decr s
      done;
      order.(!s) <- p;
      incr k
    end
  done;
  !k

let sort_ints a =
  for s = 1 to Array.length a - 1 do
    let v = a.(s) in
    let t = ref s in
    while !t > 0 && a.(!t - 1) > v do
      a.(!t) <- a.(!t - 1);
      decr t
    done;
    a.(!t) <- v
  done

(* What one elimination builds: [factor]'s boxed factor, or the pattern
   [symbolic] records ([None] when no complete pivot sequence exists). *)
type _ product = Boxed : factor product | Program : pattern option product

(* The one elimination.  [Program] is [symbolic]: exact cancellations keep
   their (zero-valued) entry and every fill is materialised, because the
   pattern must stay structurally valid at points where the cancellation
   does not happen; the program's streams are recorded, and nothing boxed
   is kept.  [Boxed] is [factor]: an update that cancels exactly removes
   its entry, and a fill that is exactly zero is never made (a stored zero
   would inflate the Markowitz counts and skew later pivot choices); the
   pivots, U rows and multipliers are kept boxed, and nothing is recorded. *)
let eliminate : type a. a product -> pivot_threshold:float -> builder -> a =
 fun product ~pivot_threshold b ->
  let record = match product with Program -> true | Boxed -> false in
  let n = b.n in
  let w = workspace b in
  let nnz = Array.fold_left ( + ) 0 w.len in
  let coo_start = Array.make (n + 1) 0
  and coo_cols = Array.make (if record then nnz else 0) 0 in
  if record then
    for i = 0 to n - 1 do
      coo_start.(i + 1) <- coo_start.(i) + w.len.(i);
      Array.blit w.cols.(i) 0 coo_cols coo_start.(i) w.len.(i)
    done;
  let row_active = Array.make n true in
  let pivot_rows = Array.make n (-1) and pivot_cols = Array.make n (-1) in
  let boxed = if record then 0 else n in
  let pivots = Array.make boxed Complex.zero and upper = Array.make boxed [||] in
  let lower = ref [] and det_mag = ref Ec.one in
  let pivot_slot = Array.make n (-1) in
  let u_start = Array.make (n + 1) 0 and u_slot = stream () and u_col = stream () in
  let elim_start = Array.make (n + 1) 0 and elim_row = stream () in
  let elim_a_slot = stream () and elim_upd = stream () in
  let fill = ref 0 and next_slot = ref nnz in
  let k = ref 0 in
  while !k < n && markowitz_pivot w ~pivot_threshold ~row_active do
    let step = !k in
    let pi = w.best_row and pp = w.best_pos in
    let pcols = w.cols.(pi) and pre = w.re.(pi) and pim = w.im.(pi) in
    let pslot = w.slot.(pi) in
    let pj = pcols.(pp) in
    let pv = { Complex.re = pre.(pp); im = pim.(pp) } in
    pivot_rows.(step) <- pi;
    pivot_cols.(step) <- pj;
    if record then pivot_slot.(step) <- pslot.(pp)
    else begin
      pivots.(step) <- pv;
      det_mag := Ec.mul !det_mag (Ec.of_complex pv)
    end;
    row_active.(pi) <- false;
    for p = 0 to w.len.(pi) - 1 do
      col_drop w pcols.(p) pi
    done;
    (* The U row: the pivot row is inactive from here on, so its arrays
       stay as they are while the targets read them. *)
    let nu = u_order w pi pp in
    let order = w.order in
    if record then begin
      for u = 0 to nu - 1 do
        append u_slot pslot.(order.(u));
        append u_col pcols.(order.(u))
      done;
      u_start.(step + 1) <- u_slot.len
    end
    else
      upper.(step) <-
        Array.init nu (fun u ->
            let p = order.(u) in
            (pcols.(p), { Complex.re = pre.(p); im = pim.(p) }));
    (* Eliminate the pivot column from the remaining active rows, in
       ascending row order. *)
    let nt = w.col_len.(pj) in
    let targets = Array.sub w.col_rows.(pj) 0 nt in
    sort_ints targets;
    w.col_len.(pj) <- 0;
    for t = 0 to nt - 1 do
      let i = targets.(t) in
      let a = find_col w i pj in
      let v = { Complex.re = w.re.(i).(a); im = w.im.(i).(a) } in
      if record then begin
        append elim_row i;
        append elim_a_slot w.slot.(i).(a)
      end;
      remove w i a;
      let m = Complex.div v pv in
      if not record then lower := (i, step, m) :: !lower;
      let mr = m.Complex.re and mi = m.Complex.im in
      reserve w i (w.len.(i) + nu);
      let cs = w.cols.(i) and re = w.re.(i) and im = w.im.(i) in
      let mg = w.mag.(i) and sl = w.slot.(i) in
      for p = 0 to w.len.(i) - 1 do
        w.pos.(cs.(p)) <- p
      done;
      for u = 0 to nu - 1 do
        let up = order.(u) in
        let j = pcols.(up) and ur = pre.(up) and ui = pim.(up) in
        (* [Complex.neg (Complex.mul m u)], unboxed. *)
        let dre = -.((mr *. ur) -. (mi *. ui)) and dim = -.((mr *. ui) +. (mi *. ur)) in
        let p = w.pos.(j) in
        if p < 0 then begin
          if record || dre <> 0. || dim <> 0. then begin
            let s = !next_slot in
            w.pos.(j) <- push w i j dre dim ~stamp:w.clock ~slot:s;
            w.clock <- w.clock + 1;
            incr next_slot;
            incr fill;
            if record then append elim_upd s
          end
        end
        else begin
          let nre = re.(p) +. dre and nim = im.(p) +. dim in
          if (not record) && nre = 0. && nim = 0. then begin
            remove w i p;
            col_drop w j i
          end
          else begin
            re.(p) <- nre;
            im.(p) <- nim;
            mg.(p) <- Float.hypot nre nim;
            if record then append elim_upd sl.(p)
          end
        end
      done;
      for p = 0 to w.len.(i) - 1 do
        w.pos.(cs.(p)) <- -1
      done
    done;
    elim_start.(step + 1) <- elim_row.len;
    incr k
  done;
  let singular = !k < n in
  let sign =
    if singular then 0 else permutation_sign pivot_rows * permutation_sign pivot_cols
  in
  match product with
  | Boxed ->
      {
        n;
        pivot_rows;
        pivot_cols;
        pivots;
        lower = Array.of_list (List.rev !lower);
        upper;
        det = (if singular then Ec.zero else if sign < 0 then Ec.neg !det_mag else !det_mag);
        fill_in = !fill;
        singular;
      }
  | Program when singular -> None
  | Program ->
      Some
        {
          prog =
            {
              Kernel.n;
              nslots = !next_slot;
              sign;
              threshold = pivot_threshold;
              pivot_row = pivot_rows;
              pivot_col = pivot_cols;
              pivot_slot;
              u_start;
              u_slot = contents u_slot;
              u_col = contents u_col;
              elim_start;
              elim_row = contents elim_row;
              elim_a_slot = contents elim_a_slot;
              elim_upd = contents elim_upd;
              fill = !fill;
            };
          coo_start;
          coo_cols;
        }

let factor ?(pivot_threshold = 0.1) (b : builder) =
  Obs.incr Obs.lu_factor;
  Tr.span ~cat:"lu" "lu.factor" @@ fun () ->
  if Inject.fire Inject.sparse_singular then injected_singular b.n
  else eliminate Boxed ~pivot_threshold b

let det f = f.det
let fill_in f = f.fill_in

(* Symbolic analysis: the same elimination, recording the slot layout and
   the program.  [None] when the matrix is singular at the analysed point
   (no complete pivot sequence exists to record). *)
let symbolic ?(pivot_threshold = 0.1) (b : builder) =
  Obs.incr Obs.lu_symbolic;
  Tr.span ~cat:"lu" "lu.symbolic" @@ fun () -> eliminate Program ~pivot_threshold b

(* Numeric refactorisation: replay the recorded program on new values,
   walking its streams as the batch stub does.  [None] whenever a reused
   pivot is exactly zero or falls below the threshold-pivoting floor
   relative to its remaining row.  No production path calls it, and it
   counts nothing, opens no span and fires no fault hook: it is the boxed
   reference that {!Kernel.Batch} must match bit for bit. *)
let refactor (p : pattern) (values : Complex.t array) =
  let { Kernel.n; nslots; sign; threshold; pivot_row; pivot_col; pivot_slot; u_start;
        u_slot; u_col; elim_start; elim_row; elim_a_slot; elim_upd; fill } =
    p.prog
  in
  if Array.length values <> pattern_nnz p then
    invalid_arg "Sparse.refactor: values length does not match pattern";
  let re = Array.make nslots 0. and im = Array.make nslots 0. in
  Array.iteri
    (fun s (v : Complex.t) ->
      re.(s) <- v.Complex.re;
      im.(s) <- v.Complex.im)
    values;
  let lower = Array.make (Array.length elim_row) (0, 0, Complex.zero) in
  let upd = ref 0 in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    let step = !k in
    let ps = pivot_slot.(step) in
    let pr = re.(ps) and pim = im.(ps) in
    let pmag = Float.hypot pr pim in
    (* Threshold floor: the pivot must still dominate its remaining row the
       way Markowitz + threshold pivoting would have required. *)
    let ub = u_start.(step) and ue = u_start.(step + 1) in
    let rmax = ref pmag in
    for idx = ub to ue - 1 do
      let s = u_slot.(idx) in
      let m = Float.hypot re.(s) im.(s) in
      if m > !rmax then rmax := m
    done;
    (* A non-finite pivot (NaN-contaminated values) must also bail out: NaN
       compares false against the floor, and the full search degrades to a
       clean singular result where the replay would feed NaN downstream. *)
    if pmag = 0. || (not (Float.is_finite pmag)) || pmag < threshold *. !rmax then
      ok := false
    else begin
      let den = (pr *. pr) +. (pim *. pim) in
      for t = elim_start.(step) to elim_start.(step + 1) - 1 do
        let a = elim_a_slot.(t) in
        let ar = re.(a) and ai = im.(a) in
        (* m = a / pivot, unboxed. *)
        let mr = ((ar *. pr) +. (ai *. pim)) /. den
        and mi = ((ai *. pr) -. (ar *. pim)) /. den in
        lower.(t) <- (elim_row.(t), step, { Complex.re = mr; im = mi });
        for idx = ub to ue - 1 do
          let s = u_slot.(idx) and d = elim_upd.(!upd) in
          let ur = re.(s) and ui = im.(s) in
          re.(d) <- re.(d) -. ((mr *. ur) -. (mi *. ui));
          im.(d) <- im.(d) -. ((mr *. ui) +. (mi *. ur));
          incr upd
        done
      done;
      incr k
    end
  done;
  if not !ok then None
  else begin
    (* Pivot-row slots freeze at their own step, so the final workspace holds
       exactly the U snapshots and pivots the factor needs. *)
    let at s = { Complex.re = re.(s); im = im.(s) } in
    let pivots = Array.map at pivot_slot in
    let upper =
      Array.init n (fun k ->
          let ub = u_start.(k) in
          Array.init (u_start.(k + 1) - ub) (fun idx ->
              (u_col.(ub + idx), at u_slot.(ub + idx))))
    in
    let det_mag =
      Array.fold_left (fun acc pv -> Ec.mul acc (Ec.of_complex pv)) Ec.one pivots
    in
    let det = if sign < 0 then Ec.neg det_mag else det_mag in
    Some
      {
        n;
        pivot_rows = pivot_row;
        pivot_cols = pivot_col;
        pivots;
        lower;
        upper;
        det;
        fill_in = fill;
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
