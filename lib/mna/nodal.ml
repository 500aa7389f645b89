module Sparse = Symref_linalg.Sparse
module Kernel = Symref_linalg.Kernel
module Ec = Symref_numeric.Extcomplex
module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist
module Obs = Symref_obs.Metrics
module Inject = Symref_fault.Inject
module BA1 = Bigarray.Array1

type input =
  | Vsrc_element of string
  | V_single of string
  | V_diff of string * string
  | V_common of string * string
  | I_single of string

type output = Out_node of string | Out_diff of string * string

exception Unsupported of string

type role = Ground | Driven of float | Free of int

(* The reduced system, stamped once at [make] time into coordinate arrays.
   Every matrix entry is an affine form [g_coef * g + (s * f) * c_coef]; the
   right-hand side additionally carries unscaled current injections.  [eval]
   then only combines coefficients per point — no netlist traversal, no
   hashtable assembly. *)
type stamp = {
  m_rows : int array;  (* coordinate -> reduced row *)
  m_cols : int array;  (* coordinate -> reduced column *)
  m_g : float array;  (* conductance-dimensioned coefficient (scales with g) *)
  m_c : float array;  (* capacitance coefficient (scales with f*s) *)
  rhs_g : float array;  (* per reduced row, from driven columns *)
  rhs_c : float array;
  rhs_k : float array;  (* constant current injections *)
}

(* Reusable symbolic factorisation.  All unit-circle points of one
   interpolation pass share the sparsity structure of [g G + f s C], and so
   do the passes of one problem: a problem learns its Markowitz ordering
   once, at its initial scale pair (1/mean C, 1/mean G) — the first pass's
   scale, whatever order the calls come in — and at the canonical point
   [s = i], which is independent of evaluation order.  Every other (f, g)
   first replays that circuit program once at [s = i] with the pair's
   values; when no pivot trips the threshold floor and the determinant is
   non-zero, the pair is served by the circuit program, otherwise it learns
   its own, exactly as the initial pair did.  The choice is a pure function
   of (t, f, g), so a problem swept in any order gives the same bits.
   Every pair's choice is kept for the life of the [t] (one job): the
   health probes revisit the scales generation used.  A problem with no
   capacitor or no conductance has no initial pair and learns per pair.
   [None] payload: the pattern could not be learned (singular at the
   canonical point); evaluate from scratch.  Each learned pattern owns one
   batch workspace, shared by the pairs it serves, and the mutex covers a
   whole [eval_batch] — lookup, replay check, scatter, replay, fallbacks —
   so concurrent callers on one [t] take turns. *)
type payload = {
  pl_slot : int array;
      (* stamp coordinate -> program slot, -1 for entries identically zero
         over the pass *)
  pl_batch : Kernel.Batch.t;
}

type cache = {
  mutable pats : (float * float * payload option) list;
  lock : Mutex.t;
}

type t = {
  circuit : Netlist.t; (* input voltage source removed *)
  roles : role array;
  dim : int;
  injections : (int * float) list; (* reduced row -> unit-current injection *)
  out_p : int option;
  out_m : int option;
  den_gdeg : int;
  num_gdeg : int;
  order_bound : int;
  stamp : stamp;
  reuse : bool;
  initial : (float * float) option;
      (* (1/mean C, 1/mean G): where the circuit program is learned *)
  cache : cache;
}

type value = {
  den : Ec.t;
  num : Ec.t;
  h : Complex.t;
  singular : bool;
}

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let resolve_node circuit name =
  match Netlist.node_id circuit name with
  | Some id -> id
  | None -> unsupported "unknown node %s" name

(* One pass over the elements, accumulating the affine coefficients of every
   reduced-matrix entry and right-hand-side row.  Mirrors the per-point
   stamping the evaluator used to redo at every interpolation point. *)
let build_stamp circuit (roles : role array) dim injections =
  let cells = Hashtbl.create 64 in
  (* (r, c) -> (g coefficient, c coefficient), in first-touch order *)
  let order = ref [] in
  let rhs_g = Array.make dim 0.
  and rhs_c = Array.make dim 0.
  and rhs_k = Array.make dim 0. in
  let entry row col ~gc ~cc =
    match roles.(row) with
    | Ground | Driven _ -> ()
    | Free r -> (
        match roles.(col) with
        | Ground -> ()
        | Driven d ->
            rhs_g.(r) <- rhs_g.(r) -. (gc *. d);
            rhs_c.(r) <- rhs_c.(r) -. (cc *. d)
        | Free c -> (
            let key = (r, c) in
            match Hashtbl.find_opt cells key with
            | Some (gr, cr) ->
                gr := !gr +. gc;
                cr := !cr +. cc
            | None ->
                Hashtbl.add cells key (ref gc, ref cc);
                order := key :: !order))
  in
  let admittance a b ~gc ~cc =
    entry a a ~gc ~cc;
    entry b b ~gc ~cc;
    let gc = -.gc and cc = -.cc in
    entry a b ~gc ~cc;
    entry b a ~gc ~cc
  in
  let transconductance p m cp cm gm =
    entry p cp ~gc:gm ~cc:0.;
    entry p cm ~gc:(-.gm) ~cc:0.;
    entry m cp ~gc:(-.gm) ~cc:0.;
    entry m cm ~gc:gm ~cc:0.
  in
  let inject n amps =
    match roles.(n) with
    | Ground | Driven _ -> ()
    | Free r -> rhs_k.(r) <- rhs_k.(r) +. amps
  in
  List.iter
    (fun (e : Element.t) ->
      match e.Element.kind with
      | Element.Conductance { a; b; siemens } -> admittance a b ~gc:siemens ~cc:0.
      | Element.Resistor { a; b; ohms } -> admittance a b ~gc:(1. /. ohms) ~cc:0.
      | Element.Capacitor { a; b; farads } -> admittance a b ~gc:0. ~cc:farads
      | Element.Vccs { p; m; cp; cm; gm } -> transconductance p m cp cm gm
      | Element.Isrc { a; b; amps } ->
          inject a (-.amps);
          inject b amps
      | Element.Inductor _ | Element.Vcvs _ | Element.Cccs _ | Element.Ccvs _
      | Element.Vsrc _ ->
          assert false (* rejected in make *))
    (Netlist.elements circuit);
  List.iter (fun (r, v) -> rhs_k.(r) <- rhs_k.(r) +. v) injections;
  (* Coordinates whose both coefficients cancelled exactly are zero at every
     evaluation point; dropping them keeps the sparsity structure honest. *)
  let live =
    List.filter
      (fun key ->
        let gr, cr = Hashtbl.find cells key in
        !gr <> 0. || !cr <> 0.)
      (List.rev !order)
  in
  let m = List.length live in
  let m_rows = Array.make m 0
  and m_cols = Array.make m 0
  and m_g = Array.make m 0.
  and m_c = Array.make m 0. in
  List.iteri
    (fun e ((r, c) as key) ->
      let gr, cr = Hashtbl.find cells key in
      m_rows.(e) <- r;
      m_cols.(e) <- c;
      m_g.(e) <- !gr;
      m_c.(e) <- !cr)
    live;
  { m_rows; m_cols; m_g; m_c; rhs_g; rhs_c; rhs_k }

let make ?(reuse = true) circuit ~input ~output =
  (* Resolve the input into (circuit without source, driven nodes, current
     injections). *)
  let circuit, driven, injections_nodes =
    match input with
    | Vsrc_element name -> (
        match Netlist.find_element circuit name with
        | None -> unsupported "no element named %s" name
        | Some { Element.kind = Element.Vsrc { p; m; volts }; _ } ->
            let reduced = Netlist.remove_element circuit name in
            if m = 0 && p <> 0 then (reduced, [ (p, volts) ], [])
            else if p = 0 && m <> 0 then (reduced, [ (m, -.volts) ], [])
            else unsupported "voltage source %s is not grounded" name
        | Some _ -> unsupported "element %s is not a voltage source" name)
    | V_single name ->
        let n = resolve_node circuit name in
        if n = 0 then unsupported "cannot drive ground";
        (circuit, [ (n, 1.) ], [])
    | V_diff (pn, mn) ->
        let p = resolve_node circuit pn and m = resolve_node circuit mn in
        if p = 0 || m = 0 || p = m then
          unsupported "differential input needs two distinct non-ground nodes";
        (circuit, [ (p, 0.5); (m, -0.5) ], [])
    | V_common (pn, mn) ->
        let p = resolve_node circuit pn and m = resolve_node circuit mn in
        if p = 0 || m = 0 || p = m then
          unsupported "common-mode input needs two distinct non-ground nodes";
        (circuit, [ (p, 1.); (m, 1.) ], [])
    | I_single name ->
        let n = resolve_node circuit name in
        if n = 0 then unsupported "cannot inject into ground";
        (circuit, [], [ (n, 1.) ])
  in
  List.iter
    (fun e ->
      if not (Element.is_nodal_class e) then
        unsupported "element %s is outside the nodal class (%s)" e.Element.name
          (Element.describe e))
    (Netlist.elements circuit);
  let n_nodes = Netlist.node_count circuit in
  let roles = Array.make (n_nodes + 1) Ground in
  List.iter (fun (n, d) -> roles.(n) <- Driven d) driven;
  let dim = ref 0 in
  for i = 1 to n_nodes do
    match roles.(i) with
    | Ground ->
        roles.(i) <- Free !dim;
        incr dim
    | Driven _ -> ()
    | Free _ -> assert false
  done;
  let dim = !dim in
  if dim = 0 then unsupported "no free nodes left";
  let reduced_of name =
    let n = resolve_node circuit name in
    match roles.(n) with
    | Ground -> None
    | Free i -> Some i
    | Driven _ -> unsupported "output node %s is driven" name
  in
  let out_p, out_m =
    match output with
    | Out_node name -> (reduced_of name, None)
    | Out_diff (a, b) -> (reduced_of a, reduced_of b)
  in
  if out_p = None && out_m = None then unsupported "output is identically zero";
  let injections =
    List.map
      (fun (n, v) ->
        match roles.(n) with
        | Free i -> (i, v)
        | Ground | Driven _ -> unsupported "cannot inject into a driven node")
      injections_nodes
  in
  let num_gdeg = match input with I_single _ -> dim - 1 | _ -> dim in
  let initial =
    match (Netlist.mean_capacitance circuit, Netlist.mean_conductance circuit) with
    | c, g -> Some (1. /. c, 1. /. g)
    | exception Invalid_argument _ -> None
  in
  {
    circuit;
    roles;
    dim;
    injections;
    out_p;
    out_m;
    den_gdeg = dim;
    num_gdeg;
    order_bound = Int.min (Netlist.capacitor_count circuit) dim;
    stamp = build_stamp circuit roles dim injections;
    reuse;
    initial;
    cache = { pats = []; lock = Mutex.create () };
  }

type plan = {
  reduced_circuit : Netlist.t;
  roles : role array;
  plan_dim : int;
  plan_out_p : int option;
  plan_out_m : int option;
  plan_injections : (int * float) list;
}

let plan t =
  {
    reduced_circuit = t.circuit;
    roles = Array.copy t.roles;
    plan_dim = t.dim;
    plan_out_p = t.out_p;
    plan_out_m = t.out_m;
    plan_injections = t.injections;
  }

let dimension t = t.dim
let order_bound t = t.order_bound
let den_gdeg t = t.den_gdeg
let num_gdeg t = t.num_gdeg
let mean_conductance t = Netlist.mean_conductance t.circuit
let mean_capacitance t = Netlist.mean_capacitance t.circuit

(* Learn the factorisation pattern for a scale pair at the canonical point
   [s = i].  With [s = i] an entry's value is [{re = g_coef*g; im = c_coef*f}]:
   it vanishes exactly when the entry vanishes at {e every} unit-circle point,
   so the learned structure covers all points of the pass. *)
let learn_pattern t ~f ~g =
  let st = t.stamp in
  let b = Sparse.create t.dim in
  Array.iteri
    (fun e r ->
      Sparse.add b r st.m_cols.(e)
        { Complex.re = st.m_g.(e) *. g; im = st.m_c.(e) *. f })
    st.m_rows;
  match Sparse.symbolic b with
  | None -> None
  | Some pat ->
      (* Each stamp coordinate's program slot, so the hot-path scatter is
         one indirection; -1 where the coordinate is identically zero at
         every point of this pass. *)
      let slot =
        Array.init (Array.length st.m_rows) (fun e ->
            Sparse.pattern_slot pat st.m_rows.(e) st.m_cols.(e))
      in
      Some { pl_slot = slot; pl_batch = Kernel.Batch.create (Sparse.pattern_program pat) }

(* The per-point fallbacks of [eval_batch]: a full factorisation for
   ejected points (and every point when [reuse] is off or the pattern
   could not be learned), Cramer determinants for pole points. *)

(* Lazy: the batch writes the right-hand side straight into its planes and
   never needs the boxed array — only the fallbacks force it. *)
let rhs_lazy t ~f ~g ~sre ~sim =
  let st = t.stamp in
  lazy
    (Array.init t.dim (fun r ->
         let cf = st.rhs_c.(r) *. f in
         {
           Complex.re = st.rhs_k.(r) +. (st.rhs_g.(r) *. g) +. (sre *. cf);
           im = sim *. cf;
         }))

(* Assemble a builder from the coordinate arrays — the full-Markowitz
   fallback and the singular-point Cramer matrices (column [col] replaced
   by the right-hand side) share this, so nothing is ever stamped twice.
   Value of coordinate [e] at a point: [g_coef*g + s*(c_coef*f)]. *)
let build_at t ~f ~g ~sre ~sim ~rhs ?replace_col () =
  let st = t.stamp in
  let m = Array.length st.m_rows in
  let value e =
    let cf = st.m_c.(e) *. f in
    { Complex.re = (st.m_g.(e) *. g) +. (sre *. cf); im = sim *. cf }
  in
  let b = Sparse.create t.dim in
  (match replace_col with
  | None -> for e = 0 to m - 1 do Sparse.add b st.m_rows.(e) st.m_cols.(e) (value e) done
  | Some col ->
      for e = 0 to m - 1 do
        if st.m_cols.(e) <> col then Sparse.add b st.m_rows.(e) st.m_cols.(e) (value e)
      done;
      Array.iteri
        (fun r v -> if v <> Complex.zero then Sparse.add b r col v)
        (Lazy.force rhs));
  b

let singular_value_at t ~f ~g ~sre ~sim ~rhs =
  (* A pole sits exactly on this interpolation point: H is undefined, but
     the numerator value is still well-defined through Cramer's rule
     (x_j * D = det of the matrix with column j replaced by the RHS). *)
  let cramer = function
    | None -> Ec.zero
    | Some col ->
        Sparse.det
          (Sparse.factor (build_at t ~f ~g ~sre ~sim ~rhs ~replace_col:col ()))
  in
  let num = Ec.sub (cramer t.out_p) (cramer t.out_m) in
  { den = Ec.zero; num; h = Complex.zero; singular = true }

let finish_at t ~f ~g ~sre ~sim ~rhs factor =
  let den = Sparse.det factor in
  if Ec.is_zero den then singular_value_at t ~f ~g ~sre ~sim ~rhs
  else begin
    let x = Sparse.solve factor (Lazy.force rhs) in
    let pick = function Some i -> x.(i) | None -> Complex.zero in
    let h = Complex.sub (pick t.out_p) (pick t.out_m) in
    let num = Ec.mul_complex den h in
    { den; num; h; singular = false }
  end

let from_scratch_at t ~f ~g ~sre ~sim ~rhs =
  finish_at t ~f ~g ~sre ~sim ~rhs
    (Sparse.factor (build_at t ~f ~g ~sre ~sim ~rhs ()))

(* Scatter every point's matrix and RHS into [pl]'s slot-major planes and
   run the elimination program once: the inner loops run over the
   contiguous points of each instruction.  Fires no hook and counts
   nothing. *)
let replay t ~f ~g pl points =
  let b = pl.pl_batch in
  let st = t.stamp in
  let m = Array.length st.m_rows in
  let cnt = Array.length points in
  Kernel.Batch.begin_batch b cnt;
  let stride = Kernel.Batch.stride b in
  let pre = Kernel.Batch.point_re b and pim = Kernel.Batch.point_im b in
  for q = 0 to cnt - 1 do
    pre.(q) <- points.(q).Complex.re;
    pim.(q) <- points.(q).Complex.im
  done;
  (* Direct stores into the planes: the per-coordinate coefficients are
     loop-invariant across the batch, so hoisting [g_coef*g] and [c_coef*f]
     keeps the per-point expression tree identical to [build_at]'s
     [(m_g*g) +. (sre *. (m_c*f))]. *)
  let wre = Kernel.Batch.matrix_re b and wim = Kernel.Batch.matrix_im b in
  let k_slot = pl.pl_slot in
  for e = 0 to m - 1 do
    let sl = Array.unsafe_get k_slot e in
    if sl >= 0 then begin
      let gc = Array.unsafe_get st.m_g e *. g
      and cf = Array.unsafe_get st.m_c e *. f in
      let base = sl * stride in
      for q = 0 to cnt - 1 do
        BA1.unsafe_set wre (base + q) (gc +. (Array.unsafe_get pre q *. cf));
        BA1.unsafe_set wim (base + q) (Array.unsafe_get pim q *. cf)
      done
    end
  done;
  let yre = Kernel.Batch.rhs_re b and yim = Kernel.Batch.rhs_im b in
  for r = 0 to t.dim - 1 do
    let cf = st.rhs_c.(r) *. f in
    let kg = st.rhs_k.(r) +. (st.rhs_g.(r) *. g) in
    let base = r * stride in
    for q = 0 to cnt - 1 do
      BA1.unsafe_set yre (base + q) (kg +. (Array.unsafe_get pre q *. cf));
      BA1.unsafe_set yim (base + q) (Array.unsafe_get pim q *. cf)
    done
  done;
  Kernel.Batch.run b

(* Every point through the batched structure-of-arrays engine: [replay]
   them all, then walk the points {e in order} to fire the
   [sparse.singular] hook and dispatch per-point fallbacks.

   Fire ordering is the reason the walk is sequential and ordered: the
   batched engine itself consumes no [Inject] hits and touches no counters,
   so point [q]'s fire — and any [Sparse.factor] fires its fallback
   performs — lands strictly between point [q-1]'s and [q+1]'s.  An armed
   fault plan therefore sees the same fire sequence whether the points
   come as one batch or one at a time.

   Counter contract: a batch-served point counts [lu.refactor]; an ejected
   point (threshold floor, non-finite pivot, or injected singular) counts
   [kernel.batch_ejects] and goes to a full [Sparse.factor] (counted under
   [lu.factor]).  Threshold ejects additionally count
   [lu.refactor_fallback]; injected ones don't. *)
let run_batch t ~f ~g pl points =
  replay t ~f ~g pl points;
  let b = pl.pl_batch in
  let stride = Kernel.Batch.stride b in
  let xr = Kernel.Batch.solution_re b and xi = Kernel.Batch.solution_im b in
  Array.init (Array.length points) (fun q ->
      let s = points.(q) in
      let sre = s.Complex.re and sim = s.Complex.im in
      let rhs = rhs_lazy t ~f ~g ~sre ~sim in
      if Inject.fire Inject.sparse_singular then begin
        (* Injected singular: takes precedence over a threshold eject, and
           is not a threshold fallback — [lu.refactor_fallback] stays
           untouched. *)
        Obs.incr Obs.kernel_batch_ejects;
        from_scratch_at t ~f ~g ~sre ~sim ~rhs
      end
      else if Kernel.Batch.ejected b q then begin
        Obs.incr Obs.refactor_fallbacks;
        Obs.incr Obs.kernel_batch_ejects;
        from_scratch_at t ~f ~g ~sre ~sim ~rhs
      end
      else begin
        Obs.incr Obs.lu_refactor;
        if Kernel.Batch.det_is_zero b q then
          singular_value_at t ~f ~g ~sre ~sim ~rhs
        else begin
          let den = Kernel.Batch.det b q in
          let hre =
            (match t.out_p with
            | Some i -> BA1.unsafe_get xr ((i * stride) + q)
            | None -> 0.)
            -. (match t.out_m with
               | Some i -> BA1.unsafe_get xr ((i * stride) + q)
               | None -> 0.)
          and him =
            (match t.out_p with
            | Some i -> BA1.unsafe_get xi ((i * stride) + q)
            | None -> 0.)
            -. (match t.out_m with
               | Some i -> BA1.unsafe_get xi ((i * stride) + q)
               | None -> 0.)
          in
          let h = { Complex.re = hre; im = him } in
          let num = Ec.mul_complex den h in
          { den; num; h; singular = false }
        end
      end)

(* Whether the circuit program [pl] serves the scale pair (f, g): one
   replay at the canonical point [s = i] with the pair's values, under the
   same threshold floor as every pass point.  A coordinate the program has
   no slot for (zero at its own pair) must be zero here too.  Fires no
   [Inject] hook and counts no [lu.refactor], so an armed fault plan and
   the counters see only the pass's own points. *)
let serves t pl ~f ~g =
  let st = t.stamp in
  let covered = ref true in
  Array.iteri
    (fun e sl ->
      if sl < 0 && (st.m_g.(e) *. g <> 0. || st.m_c.(e) *. f <> 0.) then covered := false)
    pl.pl_slot;
  !covered
  &&
  let b = pl.pl_batch in
  replay t ~f ~g pl [| Complex.i |];
  not (Kernel.Batch.ejected b 0 || Kernel.Batch.det_is_zero b 0)

(* [t.cache.lock] held.  A learning counts [nodal.pattern_miss]; a pair
   served by a kept entry, or by the circuit program after a passing
   replay, counts [nodal.pattern_hit]. *)
let pattern_for t ~f ~g =
  let c = t.cache in
  let kept ~f ~g =
    List.find_map (fun (pf, pg, pl) -> if pf = f && pg = g then Some pl else None) c.pats
  in
  let keep ~f ~g payload = c.pats <- (f, g, payload) :: c.pats in
  let learn ~f ~g =
    Obs.incr Obs.pattern_misses;
    let payload = learn_pattern t ~f ~g in
    keep ~f ~g payload;
    payload
  in
  match kept ~f ~g with
  | Some payload ->
      Obs.incr Obs.pattern_hits;
      payload
  | None -> (
      match t.initial with
      | Some (f0, g0) when not (f = f0 && g = g0) -> (
          let home = match kept ~f:f0 ~g:g0 with Some p -> p | None -> learn ~f:f0 ~g:g0 in
          match home with
          | Some pl when serves t pl ~f ~g ->
              Obs.incr Obs.pattern_hits;
              keep ~f ~g home;
              home
          | _ -> learn ~f ~g)
      | _ -> learn ~f ~g)

let eval_batch ?(f = 1.) ?(g = 1.) t points =
  Mutex.protect t.cache.lock (fun () ->
      let pattern =
        if t.reuse && Array.length points > 0 then pattern_for t ~f ~g else None
      in
      match pattern with
      | None ->
          Array.map
            (fun (s : Complex.t) ->
              let sre = s.Complex.re and sim = s.Complex.im in
              from_scratch_at t ~f ~g ~sre ~sim ~rhs:(rhs_lazy t ~f ~g ~sre ~sim))
            points
      | Some pl -> run_batch t ~f ~g pl points)

let eval ?f ?g t s = (eval_batch ?f ?g t [| s |]).(0)

let response circuit ~input ~output freqs =
  let values =
    eval_batch
      (make circuit ~input ~output)
      (Array.map (fun f -> { Complex.re = 0.; im = 2. *. Float.pi *. f }) freqs)
  in
  if Array.exists (fun v -> v.singular) values then None
  else Some (Array.map (fun v -> v.h) values)

type solution = {
  transfer : Complex.t;
  forward : Complex.t array;
  adjoint : Complex.t array;
}

let solve_at t (s : Complex.t) =
  let f = 1. and g = 1. and sre = s.re and sim = s.im in
  let rhs = rhs_lazy t ~f ~g ~sre ~sim in
  let factor = Sparse.factor (build_at t ~f ~g ~sre ~sim ~rhs ()) in
  if Ec.is_zero (Sparse.det factor) then
    invalid_arg "Nodal.solve_at: the network is singular at this point";
  let v = Sparse.solve factor (Lazy.force rhs) in
  let selector = Array.make t.dim Complex.zero in
  Option.iter (fun r -> selector.(r) <- Complex.one) t.out_p;
  Option.iter (fun r -> selector.(r) <- Complex.sub selector.(r) Complex.one) t.out_m;
  let w = Sparse.solve_transpose factor selector in
  let pick = function Some r -> v.(r) | None -> Complex.zero in
  {
    transfer = Complex.sub (pick t.out_p) (pick t.out_m);
    forward =
      Array.map
        (function
          | Ground -> Complex.zero
          | Driven d -> { Complex.re = d; im = 0. }
          | Free r -> v.(r))
        t.roles;
    adjoint =
      Array.map (function Ground | Driven _ -> Complex.zero | Free r -> w.(r)) t.roles;
  }

let elimination_program ?(f = 1.) ?(g = 1.) t =
  if not t.reuse then None
  else
    Mutex.protect t.cache.lock (fun () ->
        Option.map (fun pl -> Kernel.Batch.program pl.pl_batch) (pattern_for t ~f ~g))
