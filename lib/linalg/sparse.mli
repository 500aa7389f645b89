(** Sparse complex LU decomposition with Markowitz pivoting.

    MNA matrices of analog circuits are extremely sparse (a handful of
    entries per row); the paper notes its algorithm "has been implemented
    using sparse matrix techniques".  This module provides a right-looking
    LU with Markowitz ordering under threshold partial pivoting, the
    classical choice for circuit simulators.

    Typical use: assemble once with {!create}/{!add}, then {!factor} (at each
    interpolation or AC frequency point), read the {!det} and {!solve}. *)

exception Singular
(** Raised by {!solve} when the matrix is (numerically) singular. *)

type builder
(** Mutable triplet-style accumulator for an [n x n] matrix. *)

val create : int -> builder
(** [create n] prepares an empty [n x n] builder. @raise Invalid_argument
    when [n < 0]. *)

val add : builder -> int -> int -> Complex.t -> unit
(** [add b i j v] accumulates [v] into entry [(i, j)] (duplicates sum, as
    element stamps require). @raise Invalid_argument when out of range. *)

val dimension : builder -> int
val nnz : builder -> int
(** Number of structurally non-zero entries currently stored. *)

val to_dense : builder -> Complex.t array array
(** Materialise (test helper and dense-baseline bridge). *)

val clear : builder -> unit
(** Reset all entries, keeping the dimension (cheap re-assembly at the next
    frequency point). *)

type factor

val factor : ?pivot_threshold:float -> builder -> factor
(** LU-factorisation.  [pivot_threshold] (default [0.1]) is the threshold
    partial pivoting parameter [tau]: a pivot candidate must satisfy
    [|a| >= tau * max_row |a|]; among candidates the one minimising the
    Markowitz count [(r-1)(c-1)] is chosen (ties broken by magnitude).
    Singular matrices factor with determinant zero. *)

val det : factor -> Symref_numeric.Extcomplex.t
val fill_in : factor -> int
(** Entries created during elimination (diagnostic). *)

val solve : factor -> Complex.t array -> Complex.t array
(** @raise Singular on singular matrices.
    @raise Invalid_argument on dimension mismatch. *)

val solve_transpose : factor -> Complex.t array -> Complex.t array
(** Solve [transpose A x = b] from the same factorisation — the adjoint
    (transpose) network solve that yields every element sensitivity from a
    single extra substitution.  Same exceptions as {!solve}. *)

(** {1 Symbolic / numeric split}

    When the same sparsity structure is factorised at many numeric points
    (every interpolation point of one scale pair shares the structure of
    [G + sC]), the pivot search and the hashtable-based elimination workspace
    are pure overhead after the first point.  {!symbolic} runs one full
    Markowitz factorisation and records its {e pattern} — pivot order, slot
    layout (fill-ins included) and the elimination program as flat index
    arrays — which {!Kernel.Batch} replays on whole batches of points.
    {!refactor} replays the same program one point at a time into a boxed
    factor: it is the reference the batch engine is checked against, bit
    for bit. *)

type pattern
(** The value-independent half of a factorisation: reusable across any
    numeric values with the same sparsity structure. *)

val symbolic : ?pivot_threshold:float -> builder -> (pattern * factor) option
(** [symbolic b] factorises [b] like {!factor} and records the pattern;
    the returned factor is the one at the analysed values, for free.
    [None] when the matrix is singular at the analysed point (there is no
    complete pivot sequence to record).  Unlike {!factor}, entries that
    cancel exactly during elimination are kept (with value zero): the
    pattern must stay structurally valid at points where the cancellation
    does not occur, so the recorded [fill_in] counts structural fill. *)

val refactor : pattern -> Complex.t array -> factor option
(** [refactor p values] redoes the numeric elimination with [values.(e)] the
    entry at {!pattern_coords}[ p].(e).  [None] when a reused pivot is
    exactly zero or falls below the threshold-pivoting floor relative to its
    remaining row — the caller should fall back to a fresh {!factor} so
    accuracy never regresses versus from-scratch pivoting.  Unlike {!factor}
    it keeps the recorded pivots and divides with the naive complex
    quotient, exactly as {!Kernel.Batch} does, which makes it that
    engine's test oracle.
    @raise Invalid_argument when [values] does not match the pattern. *)

val pattern_coords : pattern -> (int * int) array
(** [(row, col)] of each structural entry, in the order {!refactor} expects
    its [values] argument. *)

val pattern_dimension : pattern -> int

val pattern_nnz : pattern -> int
(** Number of structural entries, i.e. the length {!refactor} expects. *)

val pattern_stats : pattern -> int * int
(** [(slots, structural_fill)] — workspace size diagnostics. *)

(** {1 The batched replay}

    [Sparse.Kernel] re-exports {!Kernel}, the batched engine that replays a
    pattern's elimination program on many points at once. *)

module Kernel = Kernel

val pattern_program : pattern -> Kernel.program
(** The pattern's elimination program, ready for {!Kernel.Batch.create}.
    Entry [e] of {!refactor}'s [values] order scatters to slot
    [(pattern_program p).coo_slot.(e)]. *)
