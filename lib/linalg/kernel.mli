(** The recorded elimination program of a sparse LU, and the batched
    structure-of-arrays engine that replays it.

    {!Sparse.symbolic} learns a pivot order once per sparsity pattern and
    records it as a {!program}; {!Batch} replays that program — numeric
    elimination, the forward substitution fused into it, and the back
    substitution — on a whole batch of evaluation points at once.  A
    single evaluation is a batch of one.

    Bit-identity contract: for every point, {!Batch.det} and the solution
    planes hold exactly the bits of the boxed
    [Sparse.refactor] → [Sparse.det] → [Sparse.solve] chain, and a point
    is {!Batch.ejected} exactly when [Sparse.refactor] would return [None]
    (threshold floor, zero or non-finite pivot). *)

type program = {
  n : int;  (** matrix dimension *)
  nslots : int;  (** workspace slots, structural fill included *)
  sign : int;  (** permutation sign of the pivot orders *)
  threshold : float;  (** threshold-pivoting floor parameter *)
  pivot_row : int array;  (** step -> original row *)
  pivot_col : int array;  (** step -> original column *)
  pivot_slot : int array;  (** step -> slot of the pivot *)
  u_start : int array;
      (** [n + 1] offsets: step [k]'s U row is entries
          [u_start.(k) .. u_start.(k + 1) - 1] of [u_slot] and [u_col] *)
  u_slot : int array;  (** U entry -> slot *)
  u_col : int array;  (** U entry -> original column *)
  elim_start : int array;
      (** [n + 1] offsets: step [k]'s eliminated rows are entries
          [elim_start.(k) .. elim_start.(k + 1) - 1] of [elim_row] and
          [elim_a_slot] *)
  elim_row : int array;  (** eliminated row -> row id *)
  elim_a_slot : int array;  (** eliminated row -> slot of (row, pivot col) *)
  elim_upd : int array;
      (** for each eliminated row in order, one destination slot per entry
          of its step's U row (aligned with [u_slot]) *)
  fill : int;  (** structural fill-in *)
}
(** The recorded elimination program — the value-independent half of a
    factorisation, shared with {!Sparse.pattern}
    (see {!Sparse.pattern_program}) — as the flat index streams that
    {!Batch} and [Sparse.refactor] walk.  Entry [e] of a pattern's values
    order scatters to slot [e]. *)

(** {1 The batched structure-of-arrays engine} *)

type plane = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A flat [Float64] plane holding one value per (slot, point): slot-major,
    index [slot * stride + point] with [stride] the batch's point count
    padded to the tile width ({!Batch.stride}), so each instruction's
    operand column is contiguous across the points of a batch and tiles
    never straddle columns. *)

(** Replays the elimination program {e once per batch}: the program's
    streams, read in place, are decoded instruction by instruction, and
    every instruction runs an inner contiguous loop over a tile of the
    batch's points, so the decode traffic is paid once per tile instead
    of once per point (it dominates on long programs with little float
    work per step, the rc-ladder shape).  The loops
    live in a C stub (batch_stub.c) compiled with vectorisation on and FP
    contraction off, so the float work runs as packed IEEE arithmetic
    while every per-point rounding stays exactly the boxed chain's.

    Eject semantics: a point that trips the threshold floor (or goes
    non-finite) is {e marked} ({!Batch.ejected}) and keeps computing
    garbage confined to its own plane column while the batch proceeds; the
    caller re-evaluates marked points with a full factorisation.  The
    engine itself fires no fault hooks and touches no counters — the
    caller owns both, so it can interleave [Inject.sparse_singular] fires
    and per-point fallbacks in point order
    ({!Symref_mna.Nodal.eval_batch} is the consumer, and the accounting
    contract lives with the [lu.refactor]/[kernel.batch_ejects]
    counters). *)
module Batch : sig
  type t
  (** A growable batch workspace for one program: value/RHS/solution planes
      plus per-point scratch (pivot, row-max, multiplier, determinant
      accumulator, eject marks).  Not synchronised: one caller at a time
      ({!Symref_mna.Nodal} keeps one per learned pattern and runs it under
      the problem's lock). *)

  val create : program -> t
  (** Allocate an empty batch workspace (counted under
      [kernel.workspaces]); capacity grows on first use.  The workspace
      reads the program's arrays in place: it copies none of them. *)

  val program : t -> program
  (** The program the workspace replays. *)

  val begin_batch : t -> int -> unit
  (** [begin_batch b count] sizes the planes for [count] points (growing
      capacity if needed — the steady state allocates nothing) and zeroes
      the value and RHS planes.  Fixes {!stride} for this batch. *)

  val stride : t -> int
  (** The plane stride for the current batch: its point count padded up
      to the engine's tile width (a multiple of 8).  Lanes at
      [count <= q < stride] are padding — zero-scattered, computed as
      garbage, never read back. *)

  val matrix_re : t -> plane
  val matrix_im : t -> plane
  (** Raw value planes for the scatter: write between {!begin_batch} and
      {!run} at [slot * stride + point].  Hot-path scatters store into
      these directly — without flambda a cross-module setter call would
      box its float arguments. *)

  val rhs_re : t -> plane
  val rhs_im : t -> plane
  (** Raw right-hand-side planes, index [row * stride + point]. *)

  val point_re : t -> float array
  val point_im : t -> float array
  (** Per-point scratch of length >= [count] for the batch's evaluation
      points, so scatter loops read unboxed floats instead of chasing
      [Complex.t] records.  Purely a caller convenience: the engine never
      reads them. *)

  val run : t -> unit
  (** Batched elimination and back substitution (one [lu.batch] trace span
      when tracing is on).  Never fails: threshold/non-finite bails only
      mark {!ejected}.  Allocation-free in the steady state. *)

  val ejected : t -> int -> bool
  (** Whether the point left the batch (threshold floor or non-finite
      pivot at some step) — its column is garbage; re-evaluate it with a
      full factorisation. *)

  val det_is_zero : t -> int -> bool

  val det : t -> int -> Symref_numeric.Extcomplex.t
  (** Determinant of a non-ejected point, bit-identical to
      [Sparse.det (Sparse.refactor ...)]. *)

  val solution_re : t -> plane
  val solution_im : t -> plane
  (** Solution planes, index [column * stride + point], valid until the
      next {!begin_batch}. *)
end
