(* The sparse LU against its oracle: [Lu_oracle] is the per-row-hashtable
   elimination the recorded outputs were made with, and [Sparse] must
   reproduce it exactly — the same pivot sequence (tie order included), a
   [Kernel.program] equal field for field, and a [factor] whose [det],
   [solve] and [solve_transpose] agree bit for bit.

   The matrices are built to make that order matter:
   - values come from a small set (±1, ±2, ±0.5, ±i), so cost and magnitude
     ties are the rule, not the exception;
   - some rows hold more than 32 and more than 64 entries, so their hash
     bucket count doubles (at assembly and mid-elimination);
   - rows that repeat another row's values cancel exactly, and later steps
     fill the cancelled positions again (what [factor] drops, [symbolic]
     keeps);
   - some inputs are singular (a zero row, a repeated row);
   - some builders are cleared and assembled again, and some coordinates
     are stamped more than once. *)

module Sparse = Symref_linalg.Sparse
module Kernel = Symref_linalg.Kernel
module Nodal = Symref_mna.Nodal
module Ec = Symref_numeric.Extcomplex

let bits = Int64.bits_of_float

let values =
  [|
    { Complex.re = 1.; im = 0. };
    { Complex.re = -1.; im = 0. };
    { Complex.re = 2.; im = 0. };
    { Complex.re = -2.; im = 0. };
    { Complex.re = 0.5; im = 0. };
    { Complex.re = -0.5; im = 0. };
    { Complex.re = 0.; im = 1. };
    { Complex.re = 0.; im = -1. };
  |]

type op = Add of int * int * Complex.t | Clear

type case = { shape : string; n : int; threshold : float; ops : op list }

(* Every case is a list of builder operations drawn from one seed, so a
   failure prints as (shape, seed) and replays exactly. *)
let make_case shape seed =
  let st = Random.State.make [| seed |] in
  let int k = Random.State.int st k in
  let value () = values.(int (Array.length values)) in
  let ops = ref [] in
  let add i j v = ops := Add (i, j, v) :: !ops in
  (* A diagonal entry in every row keeps the matrix structurally
     nonsingular; the off-diagonal entries land anywhere, repeats
     included. *)
  let sparse_rows n ~extra =
    for i = 0 to n - 1 do
      add i i (value ());
      for _ = 1 to int (extra + 1) do
        add i (int n) (value ())
      done
    done
  in
  (* Row [i] gets [w] distinct columns. *)
  let wide_row n i w =
    let cols = Array.init n Fun.id in
    for k = n - 1 downto 1 do
      let r = int (k + 1) in
      let t = cols.(k) in
      cols.(k) <- cols.(r);
      cols.(r) <- t
    done;
    for k = 0 to w - 1 do
      add i cols.(k) (value ())
    done
  in
  let n =
    match shape with
    | "sparse" ->
        let n = 1 + int 20 in
        sparse_rows n ~extra:3;
        n
    | "wide" ->
        (* A few rows and columns past 32 and 64 entries. *)
        let n = 66 + int 24 in
        sparse_rows n ~extra:4;
        for _ = 1 to 1 + int 3 do
          wide_row n (int n) [| 26 + int 7; 58 + int 7; 26 + int (n - 26) |].(int 3)
        done;
        for _ = 1 to 1 + int 2 do
          let j = int n in
          for _ = 1 to 20 + int 40 do
            add (int n) j (value ())
          done
        done;
        n
    | "fill" ->
        (* Too many entries per row for Markowitz to avoid fill: the last
           rows grow dense, crossing 32 and 64 entries mid-elimination. *)
        let n = 50 + int 40 in
        sparse_rows n ~extra:(5 + int 5);
        n
    | "dense" ->
        (* Rows of about 30 entries, so every step fills: target rows
           cross 32 entries during the elimination, and a row just short of
           64 crosses that too. *)
        let n = 90 + int 10 in
        sparse_rows n ~extra:(50 + int 6);
        n
    | "cancel" ->
        (* Rows that repeat an earlier row's values, plus one more entry:
           eliminating one against the other cancels exactly. *)
        let n = 2 + int 23 in
        let rows = Array.make n [] in
        for i = 0 to n - 1 do
          let base =
            if i > 0 && int 3 > 0 then rows.(int i)
            else List.init (1 + int 3) (fun _ -> (int n, values.(int 2)))
          in
          rows.(i) <- base;
          List.iter (fun (j, v) -> add i j v) ((i, values.(2 + int 6)) :: base)
        done;
        n
    | _ (* "singular" *) ->
        let n = 2 + int 14 in
        sparse_rows n ~extra:2;
        (match int 3 with
        | 0 -> ops := List.filter (function Add (i, _, _) -> i <> 0 | Clear -> true) !ops
        | 1 ->
            let src = int n in
            let dst = (src + 1 + int (n - 1)) mod n in
            let kept = List.filter (function Add (i, _, _) -> i <> dst | Clear -> true) !ops in
            ops := kept;
            List.iter (function Add (i, j, v) when i = src -> add dst j v | _ -> ()) kept
        | _ -> ops := List.filter (function Add (_, j, _) -> j <> n - 1 | Clear -> true) !ops);
        n
  in
  (* One case in eight is assembled twice with a clear in between: the
     cleared rows restart at 16 buckets and grow again. *)
  if int 8 = 0 then ops := !ops @ (Clear :: !ops);
  let threshold = [| 0.1; 0.1; 0.5; 1.0 |].(int 4) in
  { shape; n; threshold; ops = List.rev !ops }

let build_new c =
  let b = Sparse.create c.n in
  List.iter (function Add (i, j, v) -> Sparse.add b i j v | Clear -> Sparse.clear b) c.ops;
  b

let build_old c =
  let b = Lu_oracle.create c.n in
  List.iter
    (function Add (i, j, v) -> Lu_oracle.add b i j v | Clear -> Lu_oracle.clear b)
    c.ops;
  b

let rhs n = Array.init n (fun i -> values.((3 * i) mod Array.length values))

let ec_same (a : Ec.t) (b : Ec.t) =
  bits a.Ec.c.Complex.re = bits b.Ec.c.Complex.re
  && bits a.Ec.c.Complex.im = bits b.Ec.c.Complex.im
  && a.Ec.e = b.Ec.e

let vec_same a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Complex.t) (y : Complex.t) ->
         bits x.Complex.re = bits y.Complex.re && bits x.Complex.im = bits y.Complex.im)
       a b

(* Both raise [Singular], or both return the same bits. *)
let solves_same old_solve new_solve =
  match (old_solve (), new_solve ()) with
  | a, b -> vec_same a b
  | exception Sparse.Singular -> (
      match old_solve () with _ -> false | exception Lu_oracle.Singular -> true)
  | exception Lu_oracle.Singular -> (
      match new_solve () with _ -> false | exception Sparse.Singular -> true)

(* The first factor field that differs, if any. *)
let factor_diff c (fo : Lu_oracle.factor) fn =
  let b = rhs c.n in
  List.find_opt
    (fun (_, same) -> not (Lazy.force same))
    [
      ("det", lazy (ec_same (Lu_oracle.det fo) (Sparse.det fn)));
      ("fill_in", lazy (fo.Lu_oracle.fill_in = Sparse.fill_in fn));
      ( "solve",
        lazy (solves_same (fun () -> Lu_oracle.solve fo b) (fun () -> Sparse.solve fn b)) );
      ( "solve_transpose",
        lazy
          (solves_same
             (fun () -> Lu_oracle.solve_transpose fo b)
             (fun () -> Sparse.solve_transpose fn b)) );
    ]
  |> Option.map fst

let program_diff (a : Kernel.program) (b : Kernel.program) =
  List.find_opt
    (fun (_, same) -> not same)
    [
      ("n", a.n = b.n);
      ("nslots", a.nslots = b.nslots);
      ("sign", a.sign = b.sign);
      ("threshold", bits a.threshold = bits b.threshold);
      ("pivot_row", a.pivot_row = b.pivot_row);
      ("pivot_col", a.pivot_col = b.pivot_col);
      ("pivot_slot", a.pivot_slot = b.pivot_slot);
      ("u_start", a.u_start = b.u_start);
      ("u_slot", a.u_slot = b.u_slot);
      ("u_col", a.u_col = b.u_col);
      ("elim_start", a.elim_start = b.elim_start);
      ("elim_row", a.elim_row = b.elim_row);
      ("elim_a_slot", a.elim_a_slot = b.elim_a_slot);
      ("elim_upd", a.elim_upd = b.elim_upd);
      ("fill", a.fill = b.fill);
    ]
  |> Option.map fst

let check c =
  let pivot_threshold = c.threshold in
  let fail what = QCheck2.Test.fail_reportf "%s: %s differs" c.shape what in
  (match
     factor_diff c
       (Lu_oracle.factor ~pivot_threshold (build_old c))
       (Sparse.factor ~pivot_threshold (build_new c))
   with
  | Some what -> fail ("factor " ^ what)
  | None -> ());
  (match
     ( Lu_oracle.symbolic ~pivot_threshold (build_old c),
       Sparse.symbolic ~pivot_threshold (build_new c) )
   with
  | None, None -> ()
  | Some _, None | None, Some _ -> fail "symbolic singularity"
  | Some (po, _), Some pn -> (
      let coords =
        Array.init (Array.length po.Lu_oracle.coo_rows) (fun e ->
            (po.Lu_oracle.coo_rows.(e), po.Lu_oracle.coo_cols.(e)))
      in
      if coords <> Sparse.pattern_coords pn then fail "pattern_coords";
      (* Entry e of the values order scatters to slot e, which is why the
         program carries no scatter map. *)
      let slots = po.Lu_oracle.coo_slot in
      if slots <> Array.init (Array.length slots) Fun.id then fail "coo_slot identity";
      match program_diff po.Lu_oracle.prog (Sparse.pattern_program pn) with
      | Some what -> fail ("program " ^ what)
      | None -> ()));
  true

let shapes = [| "sparse"; "wide"; "fill"; "dense"; "cancel"; "singular" |]

let prop_oracle =
  QCheck2.Test.make ~name:"factor and symbolic = hashtable oracle bitwise" ~count:400
    ~print:(fun (s, seed) -> Printf.sprintf "shape %s, seed %d" shapes.(s) seed)
    QCheck2.Gen.(pair (int_range 0 (Array.length shapes - 1)) (int_range 0 1_000_000))
    (fun (s, seed) -> check (make_case shapes.(s) seed))

(* [pattern_slot] resolves every coordinate [pattern_coords] lists, and
   nothing else. *)
let test_pattern_slot () =
  let c = make_case "wide" 7 in
  match Sparse.symbolic (build_new c) with
  | None -> Alcotest.fail "the wide case must factor"
  | Some pat ->
      let listed = Array.make_matrix c.n c.n (-1) in
      Array.iteri (fun e (i, j) -> listed.(i).(j) <- e) (Sparse.pattern_coords pat);
      for i = 0 to c.n - 1 do
        for j = 0 to c.n - 1 do
          Alcotest.(check int)
            (Printf.sprintf "slot (%d, %d)" i j)
            listed.(i).(j) (Sparse.pattern_slot pat i j)
        done
      done

(* The batch stub indexes its planes with the program's streams and checks
   nothing, so every program must keep them in bounds: the first broken
   condition, if any. *)
let program_fault (p : Kernel.program) =
  let n = p.n in
  let within lim a = Array.for_all (fun v -> 0 <= v && v < lim) a in
  let permutation a =
    let seen = Array.make n false in
    Array.length a = n
    && Array.for_all
         (fun v ->
           0 <= v && v < n && (not seen.(v))
           &&
           (seen.(v) <- true;
            true))
         a
  in
  let steps = List.init n Fun.id in
  let offsets start len =
    Array.length start = n + 1
    && start.(0) = 0
    && start.(n) = len
    && List.for_all (fun k -> start.(k) <= start.(k + 1)) steps
  in
  let width start k = start.(k + 1) - start.(k) in
  List.find_opt
    (fun (_, ok) -> not (Lazy.force ok))
    [
      ("pivot_row", lazy (permutation p.pivot_row));
      ("pivot_col", lazy (permutation p.pivot_col));
      ( "u_start",
        lazy
          (offsets p.u_start (Array.length p.u_slot)
          && Array.length p.u_col = Array.length p.u_slot) );
      ( "elim_start",
        lazy
          (offsets p.elim_start (Array.length p.elim_row)
          && Array.length p.elim_a_slot = Array.length p.elim_row) );
      ( "slots",
        lazy
          (Array.length p.pivot_slot = n
          && List.for_all (within p.nslots)
               [ p.pivot_slot; p.u_slot; p.elim_a_slot; p.elim_upd ]) );
      ("rows and columns", lazy (within n p.u_col && within n p.elim_row));
      ( "elim_upd",
        lazy
          (Array.length p.elim_upd
          = List.fold_left
              (fun acc k -> acc + (width p.elim_start k * width p.u_start k))
              0 steps) );
    ]
  |> Option.map fst

let prop_program_bounds =
  QCheck2.Test.make ~name:"programs keep the stub's indices in bounds" ~count:200
    ~print:(fun (net, seed, n) ->
      Printf.sprintf "%s, seed %d, n %d" (if net then "random net" else "system") seed n)
    QCheck2.Gen.(triple bool (int_range 1 100_000) (int_range 3 32))
    (fun (net, seed, n) ->
      let prog =
        if net then
          (* The program learned at the problem's initial scale pair: no
             replay runs before it is checked. *)
          let p = Test_batch.problem_of seed n in
          Nodal.elimination_program
            ~f:(1. /. Nodal.mean_capacitance p)
            ~g:(1. /. Nodal.mean_conductance p)
            p
        else
          Option.map Sparse.pattern_program
            (Sparse.symbolic (fst (Test_batch.random_system (Test_batch.lcg seed) n)))
      in
      match Option.bind prog program_fault with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "%s out of bounds" what)

let suite =
  [
    ( "lu-oracle",
      [
        Alcotest.test_case "pattern_slot = pattern_coords" `Quick test_pattern_slot;
        QCheck_alcotest.to_alcotest prop_oracle;
        QCheck_alcotest.to_alcotest prop_program_bounds;
      ] );
  ]
