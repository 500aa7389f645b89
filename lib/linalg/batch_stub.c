/* Batched structure-of-arrays elimination + back substitution.

   This is Kernel.Batch's inner loop: the recorded elimination program's
   index streams (Kernel.program) are walked in place, and
   every instruction's float work runs as a fixed-width loop over a tile
   of TILE points (plane index = slot * stride + point, stride a
   multiple of TILE).  GCC vectorises the tile loops; the
   per-instruction decode cost — the dominant overhead of replaying a
   small program point by point — is paid once per tile instead of once
   per point.

   Tiling is the cache story: a tile's plane columns are TILE contiguous
   doubles per slot, so the whole elimination's working set per tile is
   nslots * TILE * 16 bytes — L1-resident for the circuits this serves —
   where the full batch at once would stream its updates through L2.
   Grouping points into tiles changes nothing per point: columns never
   mix, each point's operation sequence is the program's, whichever tile
   runs it.

   Bit-identity contract: each point's float sequence is exactly the
   boxed chain's (Sparse.refactor + Sparse.det + Sparse.solve in
   lib/linalg/sparse.ml, with the RHS forward elimination folded into
   the multiplier step) — same formulas, same per-point operation
   order.  Four things make the C translation exact:

   - hypot is the same libm entry point the OCaml runtime's
     caml_hypot_float primitive is a thin wrapper for, so those call
     sites return identical bits (and they stay scalar calls: no vector
     math library matches libm bitwise);
   - frexp_exp below returns the exponent Float.frexp returns on every
     finite non-zero input (verified exhaustively; see its comment), and
     scale2 replaces Float.ldexp with power-of-two multiplies that are
     bitwise-equal to ldexp for every exponent frexp_exp can produce
     (argument in scale2's comment) — so the det loop (Extcomplex.mul
     per pivot, as Sparse.det folds it) needs no libm at all and
     vectorises;
   - branches the boxed chain takes on per-point data (threshold bail,
     det-hit-zero, Complex.div's Smith's algorithm) are expressed as
     elementwise selects: each lane keeps exactly the value its branch
     would have computed, and the not-taken side's arithmetic is
     discarded unobserved;
   - this translation unit is compiled with -ffp-contract=off (see
     lib/linalg/dune), so GCC never fuses a multiply-add the OCaml code
     rounds twice, and no -ffast-math-style value changes
     are licensed.  The omp simd pragmas (compiled with -fopenmp-simd,
     a pure compile-time flag) then only reorder work ACROSS lanes —
     IEEE packed div/mul/add are correctly rounded lane-wise — so
     vectorisation cannot perturb any single point.

   Lanes at count <= q < stride are padding: they scatter as zero, mark
   themselves ejected at the first pivot (magnitude 0), and compute
   harmless garbage in their own columns that no caller reads back.
   The hypot loops skip them — once padding turns NaN it would drag
   every remaining call through libm's NaN slow path.

   The one argument is the Batch.raw record (lib/linalg/kernel.ml);
   fields are read positionally and the enum below must stay in sync
   with the OCaml declaration. */

#include <math.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

/* Field indices of Batch.raw — keep in sync with kernel.ml. */
enum {
  F_RE, F_IM, F_Y_RE, F_Y_IM, F_X_RE, F_X_IM,
  F_PVR, F_PVI, F_PMAG, F_RMAX, F_PDEN, F_PYR, F_PYI, F_MUR, F_MUI,
  F_DRE, F_DIM, F_DEXP, F_EJECT,
  F_PIVOT_SLOT, F_PIVOT_ROW, F_PIVOT_COL,
  F_U_START, F_U_SLOT, F_U_COL,
  F_ELIM_START, F_ELIM_ROW, F_ELIM_A_SLOT, F_ELIM_UPD,
  F_THRESHOLD, F_STRIDE, F_N, F_SIGN, F_CNT
};

/* Must match Batch.tile in kernel.ml (stride is padded to it). */
#define TILE 8

#define DPLANE(v, i) ((double *) Caml_ba_data_val(Field((v), (i))))

/* The program's streams are OCaml int arrays, read in place: each entry
   is a tagged int, so every index read goes through Long_val.  Holding
   bare pointers into the OCaml heap is safe here because the call is
   [@@noalloc] and allocates nothing, so no collection can run, and so
   none can move an array, while the stub runs. */
#define STREAM(v, i) ((const value *) Op_val(Field((v), (i))))

/* snd (Float.frexp a) for finite a > 0., subnormals included — the
   exponent Extcomplex's normalisation takes from Float.frexp, which is
   what Sparse.det's fold uses.  Read the biased exponent straight from
   the bits; for subnormals normalise with one exact *2^54 first.  Zero,
   infinity and NaN (reached only by a zero product, handled by the
   ma == 0 selects, or by garbage lanes that are discarded) map to the
   fixed values -1535, 1536 and 0, which keep scale2 in range.  It was
   checked exhaustively (all 2048 exponents x 4096 mantissas) against an
   OCaml reference that matched Float.frexp across the full range; the
   batch test suite checks determinants against Sparse.det across that
   range.  ~10 branch-free ops, and the det loop vectorises. */
static inline __attribute__((always_inline)) int frexp_exp(double a)
{
  union { double d; uint64_t u; } ua, ud;
  ua.d = a;
  ud.d = a * 0x1p54;
  int be = (int) (ua.u >> 52);
  int bes = (int) (ud.u >> 52);
  int e = be > 0 ? be - 1022 : bes - 1076;
  e = a == 0.0 ? -1535 : e;
  e = be == 2047 ? (a == a ? 1536 : 0) : e;
  return e;
}

/* Exact 2^k as a double; valid for -1022 <= k <= 1023 (normal range). */
static inline __attribute__((always_inline)) double pow2i(int k)
{
  union { uint64_t u; double d; } u;
  u.u = (uint64_t) (k + 1023) << 52;
  return u.d;
}

/* Bitwise-exact ldexp(x, k) for |k| <= 1536 (all frexp_exp can feed
   it), without the libm call that kept the det loop scalar.

   - |k| <= 1022: 2^k is an exact normal double, and one correctly
     rounded multiply of x by an exact power of two IS ldexp — same
     single rounding, including subnormal and overflow results.
   - k > 1022: multiply by 2^(k/2) then 2^(k-k/2) (each a normal
     double).  Scaling that far up only happens when x sits at or below
     the subnormal range 2^k reaches out of, so neither step loses a
     mantissa bit: both multiplies are exact.
   - k < -1022: same split downward.  The intermediate only dips into
     subnormals when the final value is far below 2^-1075, where both
     this path and ldexp round to the same (signed) zero; otherwise the
     first multiply is exact and the second carries ldexp's one
     rounding.

   NaN and infinity ride through multiplication exactly as through
   ldexp. */
static inline __attribute__((always_inline)) double scale2(double x, int k)
{
  int small = (k >= -1022) & (k <= 1022);  /* & keeps the lane branch-free */
  int k1 = small ? k : k / 2;
  int k2 = small ? 0 : k - k / 2;
  return x * pow2i(k1) * pow2i(k2);
}

/* Declared [@@noalloc] on the OCaml side: no allocation, no callbacks,
   no exceptions below — plain loads, stores and scalar hypot calls. */
CAMLprim value symref_batch_run(value raw)
{
  double *restrict bre = DPLANE(raw, F_RE);
  double *restrict bim = DPLANE(raw, F_IM);
  double *restrict yre = DPLANE(raw, F_Y_RE);
  double *restrict yim = DPLANE(raw, F_Y_IM);
  double *restrict xre = DPLANE(raw, F_X_RE);
  double *restrict xim = DPLANE(raw, F_X_IM);
  double *restrict pvr = DPLANE(raw, F_PVR);
  double *restrict pvi = DPLANE(raw, F_PVI);
  double *restrict pmag = DPLANE(raw, F_PMAG);
  double *restrict rmax = DPLANE(raw, F_RMAX);
  double *restrict pden = DPLANE(raw, F_PDEN);
  double *restrict pyr = DPLANE(raw, F_PYR);
  double *restrict pyi = DPLANE(raw, F_PYI);
  double *restrict mur = DPLANE(raw, F_MUR);
  double *restrict mui = DPLANE(raw, F_MUI);
  double *restrict dre = DPLANE(raw, F_DRE);
  double *restrict dim = DPLANE(raw, F_DIM);
  int32_t *restrict dexp = (int32_t *) Caml_ba_data_val(Field(raw, F_DEXP));
  int32_t *restrict eject = (int32_t *) Caml_ba_data_val(Field(raw, F_EJECT));
  const value *pivot_slot = STREAM(raw, F_PIVOT_SLOT);
  const value *pivot_row = STREAM(raw, F_PIVOT_ROW);
  const value *pivot_col = STREAM(raw, F_PIVOT_COL);
  const value *u_start = STREAM(raw, F_U_START);
  const value *u_slot = STREAM(raw, F_U_SLOT);
  const value *u_col = STREAM(raw, F_U_COL);
  const value *elim_start = STREAM(raw, F_ELIM_START);
  const value *elim_row = STREAM(raw, F_ELIM_ROW);
  const value *elim_a_slot = STREAM(raw, F_ELIM_A_SLOT);
  const value *elim_upd = STREAM(raw, F_ELIM_UPD);
  const double thr = Double_val(Field(raw, F_THRESHOLD));
  const long stride = Long_val(Field(raw, F_STRIDE));
  const long n = Long_val(Field(raw, F_N));
  const long sign = Long_val(Field(raw, F_SIGN));
  const long cnt = Long_val(Field(raw, F_CNT));

  for (long q0 = 0; q0 < stride; q0 += TILE) {
    const long q1 = q0 + TILE;
    const long qh = q1 < cnt ? q1 : cnt;  /* live lanes in this tile */
    long upd_pos = 0;

    /* det := Ec.one = { c = (0.5, 0.); e = 1 } per point. */
#pragma omp simd
    for (long q = q0; q < q1; q++) {
      dre[q] = 0.5;
      dim[q] = 0.0;
      dexp[q] = 1;
    }

    for (long step = 0; step < n; step++) {
      const long base_p = Long_val(pivot_slot[step]) * stride;
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        pvr[q] = bre[base_p + q];
        pvi[q] = bim[base_p + q];
      }
      /* hypot stays a scalar libm call and skips pad lanes; their
         pmag := 0 marks them ejected at the threshold select below. */
      for (long q = q0; q < qh; q++) {
        double m = hypot(pvr[q], pvi[q]);
        pmag[q] = m;
        rmax[q] = m;
      }
      for (long q = qh; q < q1; q++) {
        pmag[q] = 0.0;
        rmax[q] = 0.0;
      }
      const long ub = Long_val(u_start[step]), ue = Long_val(u_start[step + 1]);
      for (long idx = ub; idx < ue; idx++) {
        const double *restrict sr = bre + Long_val(u_slot[idx]) * stride;
        const double *restrict si = bim + Long_val(u_slot[idx]) * stride;
        for (long q = q0; q < qh; q++) {
          double m = hypot(sr[q], si[q]);
          if (m > rmax[q]) rmax[q] = m;
        }
      }
      /* Sparse.refactor's threshold bail, as a sticky mark: the
         marked point keeps computing garbage in its own plane column
         while the batch proceeds.  m -. m = 0. is Float.is_finite,
         literally.  pden and the pivot row's RHS load in the same
         sweep — all elementwise, per-point order intact. */
      const long base_y = Long_val(pivot_row[step]) * stride;
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        double m = pmag[q];
        int bad = (m == 0.0) | (m - m != 0.0) | (m < thr * rmax[q]);
        eject[q] = bad ? 1 : eject[q];
        double r = pvr[q], i = pvi[q];
        pden[q] = r * r + i * i;
        pyr[q] = yre[base_y + q];
        pyi[q] = yim[base_y + q];
      }
      const long tb = Long_val(elim_start[step]), te = Long_val(elim_start[step + 1]);
      for (long t = tb; t < te; t++) {
        const long base_a = Long_val(elim_a_slot[t]) * stride;
        const long base_i = Long_val(elim_row[t]) * stride;
        /* m = a / pivot (refactor's naive quotient), then the fused RHS
           forward elimination — Sparse.solve's lower replay, in the same
           order per row. */
#pragma omp simd
        for (long q = q0; q < q1; q++) {
          double ar = bre[base_a + q], ai = bim[base_a + q];
          double pr = pvr[q], pi = pvi[q], den = pden[q];
          double mr = (ar * pr + ai * pi) / den;
          double mi = (ai * pr - ar * pi) / den;
          mur[q] = mr;
          mui[q] = mi;
          double yr = pyr[q], yi = pyi[q];
          yre[base_i + q] = yre[base_i + q] - (mr * yr - mi * yi);
          yim[base_i + q] = yim[base_i + q] - (mr * yi + mi * yr);
        }
        /* Source slots live in the pivot row, destinations in the
           target row: always distinct, so the restrict pairs hold. */
        for (long idx = 0; idx < ue - ub; idx++) {
          const double *restrict sr = bre + Long_val(u_slot[ub + idx]) * stride;
          const double *restrict si = bim + Long_val(u_slot[ub + idx]) * stride;
          double *restrict dr = bre + Long_val(elim_upd[upd_pos + idx]) * stride;
          double *restrict di = bim + Long_val(elim_upd[upd_pos + idx]) * stride;
#pragma omp simd
          for (long q = q0; q < q1; q++) {
            double mr = mur[q], mi = mui[q];
            dr[q] = dr[q] - (mr * sr[q] - mi * si[q]);
            di[q] = di[q] - (mr * si[q] + mi * sr[q]);
          }
        }
        upd_pos += ue - ub;
      }
      /* det := det * pivot, the unboxed Ec.mul mirror per point.  Runs
         for marked points too (on garbage, discarded later): frexp_exp
         and scale2 are total and bounded, so nothing escapes the
         column.  Ec.mul's product-hit-zero branch is the ma == 0
         selects: scale2 of a zero already lands on zero, but the OCaml
         branch writes +0. while the scaled lane may carry prr's sign
         bit, so select the literal constants. */
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        double pr = pvr[q], pi = pvi[q];
        double apr = fabs(pr), api = fabs(pi);
        double pa = apr >= api ? apr : api;
        int dep = frexp_exp(pa);
        double pmr = scale2(pr, -dep), pmi = scale2(pi, -dep);
        double ar = dre[q], ai = dim[q];
        double prr = ar * pmr - ai * pmi;
        double pri = ar * pmi + ai * pmr;
        double aprr = fabs(prr), apri = fabs(pri);
        double ma = aprr >= apri ? aprr : apri;
        int dem = frexp_exp(ma);
        dre[q] = ma == 0.0 ? 0.0 : scale2(prr, -dem);
        dim[q] = ma == 0.0 ? 0.0 : scale2(pri, -dem);
        dexp[q] = ma == 0.0 ? 0 : dexp[q] + dep + dem;
      }
    }
    if (sign < 0)
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        dre[q] = -dre[q];
        dim[q] = -dim[q];
      }

    /* Back substitution — Sparse.solve's, with the point loop
       innermost. */
    for (long k = n - 1; k >= 0; k--) {
      const long base_y = Long_val(pivot_row[k]) * stride;
      const long base_x = Long_val(pivot_col[k]) * stride;
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        xre[base_x + q] = yre[base_y + q];
        xim[base_x + q] = yim[base_y + q];
      }
      const long eb = Long_val(u_start[k]), ee = Long_val(u_start[k + 1]);
      for (long idx = eb; idx < ee; idx++) {
        /* Hoisted restrict bases keep the access pattern affine for the
           vectoriser; the U slot, the solved column j and column k are
           three distinct plane columns. */
        const double *restrict sur = bre + Long_val(u_slot[idx]) * stride;
        const double *restrict sui = bim + Long_val(u_slot[idx]) * stride;
        const double *restrict sxr = xre + Long_val(u_col[idx]) * stride;
        const double *restrict sxi = xim + Long_val(u_col[idx]) * stride;
        double *restrict axr = xre + base_x;
        double *restrict axi = xim + base_x;
#pragma omp simd
        for (long q = q0; q < q1; q++) {
          double ur = sur[q], ui = sui[q];
          double xr = sxr[q], xi = sxi[q];
          axr[q] = axr[q] - (ur * xr - ui * xi);
          axi[q] = axi[q] - (ur * xi + ui * xr);
        }
      }
      /* Smith's-algorithm division as selects: with rn/rd the chosen
         numerator/denominator, both branches of the original are
         rd + r * rn for d, so each lane's kept values are exactly its
         branch's — one real division path per lane, as in
         Complex.div. */
      const long base_p = Long_val(pivot_slot[k]) * stride;
#pragma omp simd
      for (long q = q0; q < q1; q++) {
        double pr = bre[base_p + q], pi = bim[base_p + q];
        double ar = xre[base_x + q], ai = xim[base_x + q];
        int big = fabs(pr) >= fabs(pi);
        double rn = big ? pi : pr;
        double rd = big ? pr : pi;
        double r = rn / rd;
        double d = rd + r * rn;
        double nre = big ? ar + r * ai : r * ar + ai;
        double nim = big ? ai - r * ar : r * ai - ar;
        xre[base_x + q] = nre / d;
        xim[base_x + q] = nim / d;
      }
    }
  }
  return Val_unit;
}
