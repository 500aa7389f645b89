(* Tests for dense and sparse complex LU. *)

module Dense = Symref_linalg.Dense
module Sparse = Symref_linalg.Sparse
module Ec = Symref_numeric.Extcomplex
module Ef = Symref_numeric.Extfloat
module Cx = Symref_numeric.Cx

let c re im = Cx.make re im
let r x = Cx.of_float x

let check_cx msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s vs %s" msg (Cx.to_string a) (Cx.to_string b))
    true
    (Cx.approx_equal ~rel:1e-9 ~abs:1e-9 a b)

let check_det msg expected f =
  let d = Ec.to_complex f in
  check_cx msg expected d

let dense_of_lists rows = Array.of_list (List.map Array.of_list rows)

let sparse_of_dense a =
  let n = Array.length a in
  let b = Sparse.create n in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> if v <> Complex.zero then Sparse.add b i j v) row)
    a;
  b

(* A deterministic pseudo-random generator (no wall-clock, reproducible). *)
let rand_state = ref 42

let next_float () =
  rand_state := ((!rand_state * 1103515245) + 12345) land 0x3FFFFFFF;
  (float_of_int !rand_state /. float_of_int 0x3FFFFFFF *. 4.) -. 2.

let random_matrix ?(density = 1.0) n =
  Array.init n (fun _ ->
      Array.init n (fun _ ->
          let keep = next_float () < (density *. 4.) -. 2. in
          if keep then c (next_float ()) (next_float ()) else Complex.zero))

let ensure_nonsingular a =
  (* Diagonal dominance guarantees a clean factorization. *)
  Array.iteri (fun i row -> row.(i) <- Complex.add row.(i) (r 10.)) a;
  a

let test_dense_2x2 () =
  let a = dense_of_lists [ [ r 1.; r 2. ]; [ r 3.; r 4. ] ] in
  check_det "det -2" (r (-2.)) (Dense.det (Dense.factor a));
  let x = Dense.solve_matrix a [| r 5.; r 11. |] in
  check_cx "x0" (r 1.) x.(0);
  check_cx "x1" (r 2.) x.(1)

let test_dense_complex_det () =
  (* det [[j, 1], [1, j]] = j^2 - 1 = -2 *)
  let a = dense_of_lists [ [ Cx.j; r 1. ]; [ r 1.; Cx.j ] ] in
  check_det "complex det" (r (-2.)) (Dense.det (Dense.factor a))

let test_dense_pivoting () =
  (* Zero on the diagonal forces a row swap. *)
  let a = dense_of_lists [ [ r 0.; r 1. ]; [ r 1.; r 0. ] ] in
  check_det "swap sign" (r (-1.)) (Dense.det (Dense.factor a));
  let x = Dense.solve (Dense.factor a) [| r 3.; r 7. |] in
  check_cx "x0" (r 7.) x.(0);
  check_cx "x1" (r 3.) x.(1)

let test_dense_singular () =
  let a = dense_of_lists [ [ r 1.; r 2. ]; [ r 2.; r 4. ] ] in
  let f = Dense.factor a in
  Alcotest.(check bool) "det zero" true (Ec.is_zero (Dense.det f));
  Alcotest.check_raises "solve raises" Dense.Singular (fun () ->
      ignore (Dense.solve f [| r 1.; r 1. |]))

let test_dense_extended_det () =
  (* Product of 400 diagonal entries 1e-3: det = 1e-1200, far below double
     range, must survive in extended form. *)
  let n = 400 in
  let a = Array.init n (fun i -> Array.init n (fun j -> if i = j then r 1e-3 else Complex.zero)) in
  let d = Dense.det (Dense.factor a) in
  Alcotest.(check (float 1e-6)) "log10 det" (-1200.) (Ef.log10_abs (Ec.norm d))

let test_sparse_matches_dense () =
  List.iter
    (fun n ->
      let a = ensure_nonsingular (random_matrix ~density:0.4 n) in
      let fd = Dense.factor a and fs = Sparse.factor (sparse_of_dense a) in
      let dd = Ec.to_complex (Dense.det fd) and ds = Ec.to_complex (Sparse.det fs) in
      Alcotest.(check bool)
        (Printf.sprintf "det match n=%d: %s vs %s" n (Cx.to_string dd) (Cx.to_string ds))
        true
        (Cx.approx_equal ~rel:1e-6 dd ds);
      let b = Array.init n (fun i -> c (next_float ()) (float_of_int i)) in
      let xd = Dense.solve fd b and xs = Sparse.solve fs b in
      Array.iteri
        (fun i v -> check_cx (Printf.sprintf "solve n=%d slot %d" n i) v xs.(i))
        xd)
    [ 1; 2; 3; 5; 8; 13; 21 ]

let test_sparse_residual () =
  let n = 30 in
  let a = ensure_nonsingular (random_matrix ~density:0.2 n) in
  let b = Array.init n (fun i -> c (next_float ()) (next_float () +. float_of_int i)) in
  let x = Sparse.solve (Sparse.factor (sparse_of_dense a)) b in
  let ax = Dense.mul_vec a x in
  Array.iteri (fun i v -> check_cx (Printf.sprintf "residual %d" i) b.(i) v) ax

let test_sparse_builder () =
  let b = Sparse.create 3 in
  Alcotest.(check int) "dim" 3 (Sparse.dimension b);
  Sparse.add b 0 0 (r 1.);
  Sparse.add b 0 0 (r 2.);
  Sparse.add b 2 1 Cx.j;
  Alcotest.(check int) "nnz" 2 (Sparse.nnz b);
  let d = Sparse.to_dense b in
  check_cx "accumulated stamp" (r 3.) d.(0).(0);
  check_cx "off diagonal" Cx.j d.(2).(1);
  Sparse.clear b;
  Alcotest.(check int) "cleared" 0 (Sparse.nnz b);
  Alcotest.check_raises "range check" (Invalid_argument "Sparse.add: index out of range")
    (fun () -> Sparse.add b 3 0 (r 1.))

let test_sparse_singular () =
  let b = Sparse.create 2 in
  Sparse.add b 0 0 (r 1.);
  Sparse.add b 0 1 (r 2.);
  Sparse.add b 1 0 (r 2.);
  Sparse.add b 1 1 (r 4.);
  let f = Sparse.factor b in
  Alcotest.(check bool) "det zero" true (Ec.is_zero (Sparse.det f));
  Alcotest.check_raises "solve raises" Sparse.Singular (fun () ->
      ignore (Sparse.solve f [| r 1.; r 1. |]))

let test_sparse_structurally_singular () =
  (* An all-zero row. *)
  let b = Sparse.create 3 in
  Sparse.add b 0 0 (r 1.);
  Sparse.add b 1 1 (r 1.);
  let f = Sparse.factor b in
  Alcotest.(check bool) "det zero" true (Ec.is_zero (Sparse.det f))

let test_sparse_permutation_det () =
  (* Pure permutation matrix: Markowitz will pick pivots in an arbitrary
     order; the determinant sign must still come out right.
     [[0,1,0],[0,0,1],[1,0,0]] is an even permutation: det = +1. *)
  let b = Sparse.create 3 in
  Sparse.add b 0 1 (r 1.);
  Sparse.add b 1 2 (r 1.);
  Sparse.add b 2 0 (r 1.);
  check_det "cyclic permutation det" (r 1.) (Sparse.det (Sparse.factor b));
  let b = Sparse.create 2 in
  Sparse.add b 0 1 (r 1.);
  Sparse.add b 1 0 (r 1.);
  check_det "transposition det" (r (-1.)) (Sparse.det (Sparse.factor b))

let test_sparse_fill_in_tridiagonal () =
  (* A tridiagonal matrix eliminated in natural order has zero fill-in;
     Markowitz must find such an order. *)
  let n = 20 in
  let b = Sparse.create n in
  for i = 0 to n - 1 do
    Sparse.add b i i (r 4.);
    if i > 0 then Sparse.add b i (i - 1) (r (-1.));
    if i < n - 1 then Sparse.add b i (i + 1) (r (-1.))
  done;
  let f = Sparse.factor b in
  Alcotest.(check int) "no fill-in" 0 (Sparse.fill_in f);
  Alcotest.(check bool) "det nonzero" false (Ec.is_zero (Sparse.det f))

let test_solve_transpose () =
  List.iter
    (fun n ->
      let a = ensure_nonsingular (random_matrix ~density:0.35 n) in
      let at = Array.init n (fun i -> Array.init n (fun j -> a.(j).(i))) in
      let b = Array.init n (fun i -> c (next_float ()) (float_of_int i -. 1.)) in
      let want = Dense.solve (Dense.factor at) b in
      let got = Sparse.solve_transpose (Sparse.factor (sparse_of_dense a)) b in
      Array.iteri
        (fun i v -> check_cx (Printf.sprintf "transpose n=%d slot %d" n i) v got.(i))
        want)
    [ 1; 2; 3; 5; 8; 13; 21 ]

let test_exact_cancellation_dropped () =
  (* Eliminating (0,0) updates row 1 by [a_1j -= (a_10/a_00) a_0j]; with
     a_00 = 5, a_10 = 5, a_02 = 2, a_12 = 2 the (1,2) entry cancels to
     exactly zero.  The workspace must drop it (not store a zero): the
     remaining submatrix is then structurally triangular, so Markowitz finds
     a zero-fill order and the integer determinant is exact. *)
  let b = Sparse.create 4 in
  List.iter
    (fun (i, j, v) -> Sparse.add b i j (r v))
    [
      (0, 0, 5.); (0, 2, 2.);
      (1, 0, 5.); (1, 1, 3.); (1, 2, 2.);
      (2, 1, 1.); (2, 2, 1.);
      (3, 1, 1.); (3, 3, 1.);
    ];
  let f = Sparse.factor b in
  Alcotest.(check int) "cancellation creates no fill" 0 (Sparse.fill_in f);
  check_det "integer det exact" (r 15.) (Sparse.det f);
  (* Cancellation wiping out a whole row: clean structural singularity. *)
  let b = Sparse.create 2 in
  List.iter (fun (i, j) -> Sparse.add b i j (r 1.)) [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  Alcotest.(check bool) "rank-1 det zero" true (Ec.is_zero (Sparse.det (Sparse.factor b)))

let values_of_pattern pat a =
  Array.map (fun (i, j) -> a.(i).(j)) (Sparse.pattern_coords pat)

let test_symbolic_basics () =
  let a = ensure_nonsingular (random_matrix ~density:0.4 9) in
  let b = sparse_of_dense a in
  match Sparse.symbolic b with
  | None -> Alcotest.fail "nonsingular matrix must yield a pattern"
  | Some pat ->
      Alcotest.(check int) "pattern dim" 9 (Sparse.pattern_dimension pat);
      Alcotest.(check int) "pattern nnz = builder nnz" (Sparse.nnz b)
        (Sparse.pattern_nnz pat);
      let slots, fill = Sparse.pattern_stats pat in
      Alcotest.(check bool) "slots = nnz + structural fill" true
        (slots = Sparse.pattern_nnz pat + fill);
      (* Replaying the analysed values must reproduce a full factorisation's
         determinant. *)
      (match Sparse.refactor pat (values_of_pattern pat a) with
      | None -> Alcotest.fail "refactor at the analysed values must succeed"
      | Some f ->
          check_cx "same det" (Ec.to_complex (Sparse.det (Sparse.factor b)))
            (Ec.to_complex (Sparse.det f)));
      ()

let test_refactor_threshold_fallback () =
  (* Diagonal 2x2: the pattern's pivots are the diagonal slots.  Reusing
     them on values where a pivot is exactly zero, or dominated by its row
     beyond the threshold-pivoting floor, must refuse (caller falls back to
     a fresh Markowitz factorisation) instead of dividing by ~zero. *)
  let b = Sparse.create 2 in
  Sparse.add b 0 0 (r 4.);
  Sparse.add b 0 1 (r 1.);
  Sparse.add b 1 1 (r 3.);
  match Sparse.symbolic b with
  | None -> Alcotest.fail "nonsingular matrix must yield a pattern"
  | Some pat ->
      let value_at want =
        Array.map (fun (i, j) -> List.assoc (i, j) want) (Sparse.pattern_coords pat)
      in
      let ok =
        Sparse.refactor pat (value_at [ ((0, 0), r 2.); ((0, 1), r 1.); ((1, 1), r 5.) ])
      in
      Alcotest.(check bool) "healthy values accepted" true (ok <> None);
      let zero_pivot =
        Sparse.refactor pat
          (value_at [ ((0, 0), Complex.zero); ((0, 1), r 1.); ((1, 1), r 5.) ])
      in
      Alcotest.(check bool) "zero pivot refused" true (zero_pivot = None);
      let below_floor =
        (* |a00| = 1e-3 of its row maximum: below the tau = 0.1 floor. *)
        Sparse.refactor pat
          (value_at [ ((0, 0), r 1e-3); ((0, 1), r 1.); ((1, 1), r 5.) ])
      in
      Alcotest.(check bool) "sub-threshold pivot refused" true (below_floor = None)

let prop_refactor_matches_factor =
  (* The symbolic/numeric split: learn the pattern once, then refactor with
     perturbed values; det, solve and solve_transpose must match a full
     from-scratch factorisation of the same values. *)
  let gen = QCheck2.Gen.(pair (int_range 2 12) (int_range 0 1000)) in
  QCheck2.Test.make ~name:"refactor = factor (det/solve/solve_transpose)"
    ~count:60 gen (fun (n, salt) ->
      rand_state := (salt * 7919) + 17;
      let a = ensure_nonsingular (random_matrix ~density:0.5 n) in
      match Sparse.symbolic (sparse_of_dense a) with
      | None -> false
      | Some pat ->
          (* Same structure, different values (diagonal dominance kept so the
             reused pivot order stays above the threshold floor). *)
          let a' =
            Array.map
              (Array.map (fun v ->
                   if v = Complex.zero then v
                   else Complex.mul v (c (1. +. (0.05 *. next_float ())) 0.)))
              a
          in
          let fs = Sparse.factor (sparse_of_dense a') in
          (match Sparse.refactor pat (values_of_pattern pat a') with
          | None ->
              (* The documented fallback: a reused pivot crossed the
                 threshold-pivoting floor (~1.5% of perturbed cases), and
                 the caller refactorises from scratch.  Nothing to compare. *)
              true
          | Some fr ->
              let ds = Ec.to_complex (Sparse.det fs)
              and dr = Ec.to_complex (Sparse.det fr) in
              let b = Array.init n (fun i -> c (next_float ()) (float_of_int i)) in
              let ok_vec xs xr =
                Array.for_all2 (Cx.approx_equal ~rel:1e-8 ~abs:1e-12) xs xr
              in
              Cx.approx_equal ~rel:1e-8 ds dr
              && ok_vec (Sparse.solve fs b) (Sparse.solve fr b)
              && ok_vec (Sparse.solve_transpose fs b) (Sparse.solve_transpose fr b)))

let prop_sparse_dense_agree =
  let gen = QCheck2.Gen.(int_range 1 12) in
  QCheck2.Test.make ~name:"sparse det = dense det" ~count:60 gen (fun n ->
      let a = ensure_nonsingular (random_matrix ~density:0.5 n) in
      let dd = Ec.to_complex (Dense.det (Dense.factor a)) in
      let ds = Ec.to_complex (Sparse.det (Sparse.factor (sparse_of_dense a))) in
      Cx.approx_equal ~rel:1e-6 dd ds)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sparse_dense_agree; prop_refactor_matches_factor ]

let suite =
  [
    ( "linalg-dense",
      [
        Alcotest.test_case "2x2 solve/det" `Quick test_dense_2x2;
        Alcotest.test_case "complex det" `Quick test_dense_complex_det;
        Alcotest.test_case "pivoting" `Quick test_dense_pivoting;
        Alcotest.test_case "singular" `Quick test_dense_singular;
        Alcotest.test_case "extended-range det" `Quick test_dense_extended_det;
      ] );
    ( "linalg-sparse",
      [
        Alcotest.test_case "matches dense" `Quick test_sparse_matches_dense;
        Alcotest.test_case "residual" `Quick test_sparse_residual;
        Alcotest.test_case "builder" `Quick test_sparse_builder;
        Alcotest.test_case "singular" `Quick test_sparse_singular;
        Alcotest.test_case "structurally singular" `Quick test_sparse_structurally_singular;
        Alcotest.test_case "permutation det sign" `Quick test_sparse_permutation_det;
        Alcotest.test_case "tridiagonal fill-in" `Quick test_sparse_fill_in_tridiagonal;
        Alcotest.test_case "transpose solve" `Quick test_solve_transpose;
        Alcotest.test_case "exact cancellation dropped" `Quick
          test_exact_cancellation_dropped;
        Alcotest.test_case "symbolic pattern basics" `Quick test_symbolic_basics;
        Alcotest.test_case "refactor threshold fallback" `Quick
          test_refactor_threshold_fallback;
      ]
      @ props );
  ]
