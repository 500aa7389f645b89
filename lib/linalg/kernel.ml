module Ec = Symref_numeric.Extcomplex
module Obs = Symref_obs.Metrics
module Tr = Symref_obs.Trace

(* The elimination program [Sparse.symbolic] records for a learned
   sparsity pattern: flat index streams, which the batched engine below
   and the boxed oracle [Sparse.refactor] both walk. *)

type program = {
  n : int;  (* matrix dimension *)
  nslots : int;  (* workspace slots, structural fill included *)
  sign : int;  (* permutation sign of the pivot orders *)
  threshold : float;  (* threshold-pivoting floor parameter *)
  pivot_row : int array;  (* step -> original row *)
  pivot_col : int array;  (* step -> original column *)
  pivot_slot : int array;  (* step -> slot of the pivot *)
  u_start : int array;  (* step -> first U entry; n + 1 offsets *)
  u_slot : int array;  (* U entry -> slot *)
  u_col : int array;  (* U entry -> original column *)
  elim_start : int array;  (* step -> first eliminated row; n + 1 offsets *)
  elim_row : int array;  (* eliminated row -> row id *)
  elim_a_slot : int array;  (* eliminated row -> slot of (row, pivot col) *)
  elim_upd : int array;
      (* per eliminated row, in order: one destination slot per U entry of
         its step *)
  fill : int;
}

(* --- The batched structure-of-arrays engine -------------------------------

   Replaying the program point by point re-decodes every instruction's
   index arrays and loop bounds at every point; on long programs with
   little float work per step (the rc-ladder shape) that decode traffic
   rivals the float work.  This engine transposes the loops: [re]/[im]
   become planes of [nslots * count] floats (slot-major, so one
   instruction's operand column is contiguous across points), the program
   is decoded {e once per batch}, and every instruction runs an inner
   contiguous loop over points — straight-line float code the compiler
   can keep branch-free.  A single evaluation is a batch of one.

   Bit-identity contract: batching reorders operations only {e across}
   points, whose data never interact; within one point the float dataflow
   — pivot magnitude, row maximum in [u_slot] order, multiplier, RHS
   update, U updates, determinant accumulation, back substitution — is
   operation-for-operation the boxed [Sparse.refactor] + [Sparse.det] +
   [Sparse.solve] chain, so every point's determinant and solution are
   bit-for-bit that chain's.

   Eject semantics: a point whose reused pivot trips the threshold floor
   (or goes non-finite) is {e marked} ejected and keeps computing garbage —
   branch-free, and harmless because plane columns never mix points — while
   the rest of the batch proceeds; the caller discards the marked column
   and re-evaluates that single point with a full [Sparse.factor].  The
   batch itself never consumes [Inject] hits and touches no counters: the
   caller fires the [sparse.singular] hook per point {e in point order}
   after the batch, interleaving each ejected point's fallback, so an armed
   fault plan sees one fire per point in point order whatever the batch
   size (see [Symref_mna.Nodal.eval_batch]). *)

module BA1 = Bigarray.Array1

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t

module Batch = struct
  type iplane = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t

  (* Everything [symref_batch_run] touches, gathered in one record so one
     root crosses the FFI per batch — no per-call argument boxing, so the
     stub call itself allocates nothing.  Field order is the C ABI: the
     stub reads fields positionally (the [enum] in batch_stub.c) — keep
     the two declarations in sync.  Fields 0-18 are per-batch state,
     re-allocated by [grow]; fields 19-28 are the program's own index
     streams, which the stub reads in place. *)
  type raw = {
    mutable r_re : plane;  (* 0: matrix planes, nslots * cap *)
    mutable r_im : plane;  (* 1 *)
    mutable r_y_re : plane;  (* 2: RHS by original row, n * cap *)
    mutable r_y_im : plane;  (* 3 *)
    mutable r_x_re : plane;  (* 4: solution by original column, n * cap *)
    mutable r_x_im : plane;  (* 5 *)
    mutable r_pvr : plane;  (* 6: per-point scratch, cap each *)
    mutable r_pvi : plane;  (* 7 *)
    mutable r_pmag : plane;  (* 8: pivot magnitude *)
    mutable r_rmax : plane;  (* 9: remaining-row maximum *)
    mutable r_pden : plane;  (* 10: |pivot|^2 *)
    mutable r_pyr : plane;  (* 11: pivot-row RHS *)
    mutable r_pyi : plane;  (* 12 *)
    mutable r_mur : plane;  (* 13: multiplier per point, per target *)
    mutable r_mui : plane;  (* 14 *)
    mutable r_dre : plane;  (* 15: determinant mantissa *)
    mutable r_dim : plane;  (* 16 *)
    mutable r_dexp : iplane;  (* 17: determinant binary exponent *)
    mutable r_eject : iplane;  (* 18: threshold/non-finite bail marks *)
    r_pivot_slot : int array;  (* 19 *)
    r_pivot_row : int array;  (* 20 *)
    r_pivot_col : int array;  (* 21 *)
    r_u_start : int array;  (* 22 *)
    r_u_slot : int array;  (* 23 *)
    r_u_col : int array;  (* 24 *)
    r_elim_start : int array;  (* 25 *)
    r_elim_row : int array;  (* 26 *)
    r_elim_a_slot : int array;  (* 27 *)
    r_elim_upd : int array;  (* 28 *)
    r_threshold : float;  (* 29: threshold-pivoting floor *)
    mutable r_stride : int;  (* 30: plane stride = count padded to 8 lanes *)
    r_n : int;  (* 31: matrix dimension *)
    r_sign : int;  (* 32: permutation sign *)
    mutable r_cnt : int;  (* 33: live points (lanes beyond are padding) *)
  } [@@ocaml.warning "-69"]
  (* -69: the program stream fields are read from the C side only. *)

  type t = {
    b_prog : program;
    mutable cap : int;  (* allocated lane capacity (a stride, so 8-padded) *)
    mutable s_re : float array;  (* the batch's evaluation points *)
    mutable s_im : float array;
    raw : raw;
  }

  (* The stub runs the program once per 8-lane tile so a tile's plane
     columns (8 contiguous doubles per slot) stay L1-resident across the
     whole elimination — the full batch's working set is L2-sized.
     Padding the stride to the tile width keeps every tile a full vector
     with no scalar tail; the pad lanes compute harmless garbage in their
     own columns (they scatter as zero, so they just mark themselves
     ejected) and nothing reads them back. *)
  let tile = 8

  let stride_of cnt = (cnt + (tile - 1)) land lnot (tile - 1)

  (* The whole batched elimination + back substitution, in C: the
     instruction walk and per-point formulas of [Sparse.refactor] and
     [Sparse.solve], with the point loop innermost over contiguous plane
     columns so GCC vectorises the float work (batch_stub.c carries the
     bit-identity argument; -ffp-contract=off keeps every rounding the
     boxed chain's). *)
  external raw_run : raw -> unit = "symref_batch_run" [@@noalloc]

  let mkplane len = BA1.create Bigarray.Float64 Bigarray.C_layout len
  let mkiplane len = BA1.create Bigarray.Int32 Bigarray.C_layout len

  let create prog =
    Obs.incr Obs.kernel_workspaces;
    {
      b_prog = prog;
      cap = 0;
      s_re = [||];
      s_im = [||];
      raw =
        {
          r_re = mkplane 0;
          r_im = mkplane 0;
          r_y_re = mkplane 0;
          r_y_im = mkplane 0;
          r_x_re = mkplane 0;
          r_x_im = mkplane 0;
          r_pvr = mkplane 0;
          r_pvi = mkplane 0;
          r_pmag = mkplane 0;
          r_rmax = mkplane 0;
          r_pden = mkplane 0;
          r_pyr = mkplane 0;
          r_pyi = mkplane 0;
          r_mur = mkplane 0;
          r_mui = mkplane 0;
          r_dre = mkplane 0;
          r_dim = mkplane 0;
          r_dexp = mkiplane 0;
          r_eject = mkiplane 0;
          r_pivot_slot = prog.pivot_slot;
          r_pivot_row = prog.pivot_row;
          r_pivot_col = prog.pivot_col;
          r_u_start = prog.u_start;
          r_u_slot = prog.u_slot;
          r_u_col = prog.u_col;
          r_elim_start = prog.elim_start;
          r_elim_row = prog.elim_row;
          r_elim_a_slot = prog.elim_a_slot;
          r_elim_upd = prog.elim_upd;
          r_threshold = prog.threshold;
          r_stride = 0;
          r_n = prog.n;
          r_sign = prog.sign;
          r_cnt = 0;
        };
    }

  let program b = b.b_prog
  let stride b = b.raw.r_stride

  let grow b lanes =
    let p = b.b_prog and r = b.raw in
    b.cap <- lanes;
    r.r_re <- mkplane (p.nslots * lanes);
    r.r_im <- mkplane (p.nslots * lanes);
    r.r_y_re <- mkplane (p.n * lanes);
    r.r_y_im <- mkplane (p.n * lanes);
    r.r_x_re <- mkplane (p.n * lanes);
    r.r_x_im <- mkplane (p.n * lanes);
    r.r_pvr <- mkplane lanes;
    r.r_pvi <- mkplane lanes;
    r.r_pmag <- mkplane lanes;
    r.r_rmax <- mkplane lanes;
    r.r_pden <- mkplane lanes;
    r.r_pyr <- mkplane lanes;
    r.r_pyi <- mkplane lanes;
    r.r_mur <- mkplane lanes;
    r.r_mui <- mkplane lanes;
    r.r_dre <- mkplane lanes;
    r.r_dim <- mkplane lanes;
    r.r_dexp <- mkiplane lanes;
    r.r_eject <- mkiplane lanes;
    b.s_re <- Array.make lanes 0.;
    b.s_im <- Array.make lanes 0.

  (* Zero the first [len] entries; a loop rather than [BA1.fill] over a
     [BA1.sub], which would allocate a view per call. *)
  let zero_prefix (p : plane) len =
    for i = 0 to len - 1 do
      BA1.unsafe_set p i 0.
    done

  (* The planes are packed with stride [stride b] — the count padded to
     the tile width — so their layout changes per batch; [begin_batch]
     refills everything a batch reads, which is only the prefix this
     stride uses: a batch of one after a whole pass must not pay for
     zeroing the pass's capacity.  Capacity only grows — the steady state
     (same pass sizes every generation) allocates nothing. *)
  let begin_batch b cnt =
    let lanes = stride_of cnt in
    if lanes > b.cap then grow b lanes;
    let p = b.b_prog and r = b.raw in
    r.r_stride <- lanes;
    r.r_cnt <- cnt;
    zero_prefix r.r_re (p.nslots * lanes);
    zero_prefix r.r_im (p.nslots * lanes);
    zero_prefix r.r_y_re (p.n * lanes);
    zero_prefix r.r_y_im (p.n * lanes);
    for q = 0 to lanes - 1 do
      BA1.unsafe_set r.r_eject q 0l
    done

  let matrix_re b = b.raw.r_re
  let matrix_im b = b.raw.r_im
  let rhs_re b = b.raw.r_y_re
  let rhs_im b = b.raw.r_y_im
  let point_re b = b.s_re
  let point_im b = b.s_im

  let run b =
    if Tr.is_on () then
      Tr.span ~cat:"lu"
        ~args:[ ("points", string_of_int b.raw.r_cnt) ]
        "lu.batch"
        (fun () -> raw_run b.raw)
    else raw_run b.raw

  let ejected b q = BA1.get b.raw.r_eject q <> 0l
  let det_is_zero b q = BA1.get b.raw.r_dre q = 0. && BA1.get b.raw.r_dim q = 0.

  let det b q =
    (* The stub keeps the mantissa normalised, so [Ec.make] rebuilds the
       exact record [Sparse.det]'s boxed fold produces. *)
    Ec.make
      ~c:{ Complex.re = BA1.get b.raw.r_dre q; im = BA1.get b.raw.r_dim q }
      ~e:(Int32.to_int (BA1.get b.raw.r_dexp q))

  let solution_re b = b.raw.r_x_re
  let solution_im b = b.raw.r_x_im
end
