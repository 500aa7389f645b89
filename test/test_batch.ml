(* The batched structure-of-arrays engine — the one numeric replay:
   per-point bit-identity against the boxed [Sparse.refactor] + [det] +
   [solve] chain, eject parity with its threshold bailout, determinant
   exponents across the full float range, allocation-freedom of the
   steady-state batch, workspace reuse, one problem swept from two domains
   at once, fault-injection parity with the hook interleaved mid-batch, the
   eject accounting, and the choice of one elimination program per
   circuit.

   "Bit-identical" is literal: comparisons go through
   [Int64.bits_of_float], so even NaN payloads and [-0.] must match. *)

module Sparse = Symref_linalg.Sparse
module Batch = Symref_linalg.Kernel.Batch
module Ec = Symref_numeric.Extcomplex
module Nodal = Symref_mna.Nodal
module Random_net = Symref_circuit.Random_net
module Ua741 = Symref_circuit.Ua741
module Ladder = Symref_circuit.Rc_ladder
module Biquad = Symref_circuit.Biquad
module Parser = Symref_spice.Parser
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Scaling = Symref_core.Scaling
module Obs = Symref_obs.Metrics
module Snapshot = Symref_obs.Snapshot
module Uc = Symref_dft.Unit_circle
module Inject = Symref_fault.Inject
module BA1 = Bigarray.Array1

let bits = Int64.bits_of_float

let ec_bits_equal (a : Ec.t) (b : Ec.t) =
  bits a.Ec.c.Complex.re = bits b.Ec.c.Complex.re
  && bits a.Ec.c.Complex.im = bits b.Ec.c.Complex.im
  && a.Ec.e = b.Ec.e

(* --- Sparse-level: batched = boxed refactor+det+solve, per point --------- *)

(* Deterministic LCG so every run exercises the same matrices. *)
let lcg seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_float (Int64.shift_right_logical !state 11) /. 9007199254740992.0

let random_system rand n =
  let b = Sparse.create n in
  for i = 0 to n - 1 do
    (* Strong diagonal so replays at perturbed values rarely bail — the
       eject-parity case is covered separately below. *)
    Sparse.add b i i { Complex.re = 2. +. rand (); im = 1. +. rand () };
    let offs = 1 + (int_of_float (rand () *. 3.) mod 3) in
    for _ = 1 to offs do
      let j = int_of_float (rand () *. float_of_int n) mod n in
      if j <> i then
        Sparse.add b i j { Complex.re = (rand () -. 0.5) *. 0.8; im = (rand () -. 0.5) *. 0.8 }
    done
  done;
  let rhs = Array.init n (fun _ -> { Complex.re = rand () -. 0.5; im = rand () -. 0.5 }) in
  (b, rhs)

(* Scatter one value assignment into column [q] of the batch planes (entry
   [e] of the pattern's values order is slot [e]), and the same RHS for
   every point (value variation is what matters; the RHS forward
   elimination is folded into the same inner loops). *)
let scatter_point b q vals (rhs : Complex.t array) =
  let stride = Batch.stride b in
  let wre = Batch.matrix_re b and wim = Batch.matrix_im b in
  let yre = Batch.rhs_re b and yim = Batch.rhs_im b in
  Array.iteri
    (fun e (v : Complex.t) ->
      BA1.set wre ((e * stride) + q) v.Complex.re;
      BA1.set wim ((e * stride) + q) v.Complex.im)
    vals;
  Array.iteri
    (fun r (v : Complex.t) ->
      BA1.set yre ((r * stride) + q) v.Complex.re;
      BA1.set yim ((r * stride) + q) v.Complex.im)
    rhs

(* The values [Sparse.refactor pat] would see, in pattern order. *)
let pattern_values b pat =
  let dense = Sparse.to_dense b in
  Array.map (fun (i, j) -> dense.(i).(j)) (Sparse.pattern_coords pat)

(* One batch over [per_point] value assignments, all with the same RHS. *)
let run_points pat per_point rhs =
  let bt = Batch.create (Sparse.pattern_program pat) in
  Batch.begin_batch bt (Array.length per_point);
  Array.iteri (fun q vals -> scatter_point bt q vals rhs) per_point;
  Batch.run bt;
  bt

let prop_sparse_batch_identity =
  QCheck2.Test.make
    ~name:"batched = boxed bitwise on random sparse systems" ~count:30
    QCheck2.Gen.(triple (int_range 1 100_000) (int_range 3 14) (int_range 1 9))
    (fun (seed, n, cnt) ->
      let rand = lcg seed in
      let b, rhs = random_system rand n in
      match Sparse.symbolic b with
      | None -> true
      | Some pat ->
          let base = pattern_values b pat in
          (* Per-point value assignments: the first is the base system, the
             rest perturb it — including a decade-scaled one so some points
             of a batch bail while others don't. *)
          let per_point =
            Array.init cnt (fun q ->
                if q = 0 then base
                else
                  let scale = if q mod 3 = 2 then 1e-7 else 0.5 +. rand () in
                  Array.map
                    (fun (v : Complex.t) ->
                      {
                        Complex.re = v.Complex.re *. scale;
                        im = v.Complex.im *. (scale *. (0.5 +. rand ()));
                      })
                    base)
          in
          let bt = run_points pat per_point rhs in
          let stride = Batch.stride bt in
          let xr = Batch.solution_re bt and xi = Batch.solution_im bt in
          Array.for_all Fun.id
            (Array.mapi
               (fun q vals ->
                 match Sparse.refactor pat vals with
                 | None -> Batch.ejected bt q
                 | Some factor ->
                     (not (Batch.ejected bt q))
                     && ec_bits_equal (Sparse.det factor) (Batch.det bt q)
                     && Ec.is_zero (Sparse.det factor) = Batch.det_is_zero bt q
                     && (Batch.det_is_zero bt q
                        ||
                        let x = Sparse.solve factor rhs in
                        Array.for_all Fun.id
                          (Array.mapi
                             (fun j (v : Complex.t) ->
                               bits v.Complex.re
                               = bits (BA1.get xr ((j * stride) + q))
                               && bits v.Complex.im
                                  = bits (BA1.get xi ((j * stride) + q)))
                             x)))
               per_point))

let test_eject_parity () =
  (* Degrade the diagonal towards zero until the threshold floor trips:
     the batch must eject exactly the value assignments the boxed refactor
     rejects. *)
  let rand = lcg 777 in
  let b, rhs = random_system rand 8 in
  match Sparse.symbolic b with
  | None -> Alcotest.fail "symbolic factorisation unexpectedly failed"
  | Some pat ->
      let coords = Sparse.pattern_coords pat in
      let base = pattern_values b pat in
      let scales = [| 1.; 0.1; 1e-3; 1e-6; 1e-9; 1e-12; 0. |] in
      let per_point =
        Array.map
          (fun scale ->
            Array.mapi
              (fun e (v : Complex.t) ->
                let i, j = coords.(e) in
                if i = j then { Complex.re = v.Complex.re *. scale; im = v.Complex.im *. scale }
                else v)
              base)
          scales
      in
      let bt = run_points pat per_point rhs in
      Array.iteri
        (fun q vals ->
          Alcotest.(check bool)
            (Printf.sprintf "scale %g: eject parity" scales.(q))
            (Sparse.refactor pat vals = None)
            (Batch.ejected bt q))
        per_point;
      Alcotest.(check bool) "the sweep actually ejected points" true
        (Array.exists Fun.id (Array.mapi (fun q _ -> Batch.ejected bt q) per_point))

(* Determinant exponents across the float range: a 1x1 system's
   determinant is its pivot, normalised by the stub's branch-free frexp,
   so every exponent class — subnormals, the top binade, exact powers of
   two — must land on the bits [Sparse.det] gets through [Float.frexp]. *)
let det_matches_refactor values =
  let b = Sparse.create 1 in
  Sparse.add b 0 0 Complex.one;
  match Sparse.symbolic b with
  | None -> false
  | Some pat ->
      let per_point = Array.map (fun v -> [| v |]) values in
      let bt = run_points pat per_point [| Complex.one |] in
      Array.for_all Fun.id
        (Array.mapi
           (fun q vals ->
             match Sparse.refactor pat vals with
             | None -> Batch.ejected bt q
             | Some factor ->
                 (not (Batch.ejected bt q)) && ec_bits_equal (Sparse.det factor) (Batch.det bt q))
           per_point)

let prop_det_exponent_range =
  QCheck2.Test.make ~name:"det = refactor det across the full float range" ~count:500
    QCheck2.Gen.(
      let magnitude =
        oneof
          [
            float_bound_exclusive 1e308;
            (* deep subnormals and huge values via exponent sampling *)
            map2 (fun m e -> Float.ldexp (Float.abs m) e) (float_bound_exclusive 1.)
              (int_range (-1080) 1023);
          ]
      in
      array_size (int_range 1 9) (pair magnitude (float_range (-1.) 1.)))
    (fun pts ->
      det_matches_refactor
        (Array.map (fun (a, r) -> { Complex.re = Float.abs a; im = Float.abs a *. r }) pts))

let test_det_exponent_edges () =
  let edges =
    [
      min_float; max_float; Float.ldexp 1. (-1074) (* smallest subnormal *);
      Float.ldexp 1. (-1022); Float.ldexp 0.75 (-1060); 1.; 0.5; 2.; 0x1p512; 0x1p-512;
      1e-300; 1e300; Float.pi;
    ]
  in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "det of %.17g" a)
        true
        (det_matches_refactor
           [| { Complex.re = a; im = 0. }; { Complex.re = -.a; im = a }; { Complex.re = 0.; im = a } |]))
    edges

(* --- Nodal-level: eval_batch = per-point eval on random circuits --------- *)

let problem_of seed nodes =
  let circuit = Random_net.circuit ~seed ~nodes () in
  Nodal.make circuit ~input:(Nodal.Vsrc_element "vin")
    ~output:(Nodal.Out_node (Random_net.output_node ~seed ~nodes))

let value_bits_equal (a : Nodal.value) (b : Nodal.value) =
  ec_bits_equal a.Nodal.den b.Nodal.den
  && ec_bits_equal a.Nodal.num b.Nodal.num
  && bits a.Nodal.h.Complex.re = bits b.Nodal.h.Complex.re
  && bits a.Nodal.h.Complex.im = bits b.Nodal.h.Complex.im
  && a.Nodal.singular = b.Nodal.singular

let batch_matches_per_point p ~f ~g points =
  let vb = Nodal.eval_batch ~f ~g p points in
  Array.length vb = Array.length points
  && Array.for_all Fun.id
       (Array.mapi
          (fun i s -> value_bits_equal vb.(i) (Nodal.eval ~f ~g p s))
          points)

let prop_nodal_batch_identity =
  QCheck2.Test.make
    ~name:"eval_batch = eval bitwise on random circuits" ~count:20
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 3 14))
    (fun (seed, nodes) ->
      let p = problem_of seed nodes in
      let f = 1. /. Nodal.mean_capacitance p
      and g = 1. /. Nodal.mean_conductance p in
      let k = Int.max 4 (Nodal.order_bound p + 1) in
      let all = Array.init k (fun j -> Uc.point k j) in
      (* Full circle, a single point, and the odd/even conjugate halves a
         conj-symmetric pass would batch. *)
      batch_matches_per_point p ~f ~g all
      && batch_matches_per_point p ~f ~g [| all.(0) |]
      && batch_matches_per_point p ~f ~g
           (Array.init ((k / 2) + 1) (fun j -> all.(j)))
      && batch_matches_per_point p ~f ~g
           (Array.init (k / 2) (fun j -> all.(j)))
      (* A second scale pair exercises pattern relearning + batch reuse. *)
      && batch_matches_per_point p ~f:(2. *. f) ~g all)

(* --- zero allocation per batch ------------------------------------------- *)

let test_zero_alloc_batch () =
  (* Once the planes are grown, a full batch — scatter, one program replay
     over all points, back substitution — allocates zero heap words. *)
  let rand = lcg 99 in
  let b, rhs = random_system rand 16 in
  match Sparse.symbolic b with
  | None -> Alcotest.fail "symbolic factorisation unexpectedly failed"
  | Some pat ->
      let coords = Sparse.pattern_coords pat in
      let dense = Sparse.to_dense b in
      let m = Array.length coords in
      let cnt = 32 in
      let vre = Array.init m (fun e -> (dense.(fst coords.(e)).(snd coords.(e))).Complex.re)
      and vim = Array.init m (fun e -> (dense.(fst coords.(e)).(snd coords.(e))).Complex.im) in
      let rre = Array.map (fun (v : Complex.t) -> v.Complex.re) rhs
      and rim = Array.map (fun (v : Complex.t) -> v.Complex.im) rhs in
      let bt = Batch.create (Sparse.pattern_program pat) in
      let batch () =
        Batch.begin_batch bt cnt;
        let stride = Batch.stride bt in
        let wre = Batch.matrix_re bt and wim = Batch.matrix_im bt in
        let yre = Batch.rhs_re bt and yim = Batch.rhs_im bt in
        for e = 0 to m - 1 do
          let base = e * stride in
          for q = 0 to cnt - 1 do
            BA1.set wre (base + q) (vre.(e) *. (1. +. (0.001 *. float_of_int q)));
            BA1.set wim (base + q) vim.(e)
          done
        done;
        for r = 0 to Array.length rre - 1 do
          let base = r * stride in
          for q = 0 to cnt - 1 do
            BA1.set yre (base + q) rre.(r);
            BA1.set yim (base + q) rim.(r)
          done
        done;
        Batch.run bt
      in
      (* Warm up: grows the planes to [cnt] and sanity-checks the solve. *)
      batch ();
      Alcotest.(check bool) "warm-up batch solves" false (Batch.det_is_zero bt 0);
      Alcotest.(check bool) "warm-up batch ejects nothing" false
        (Batch.ejected bt (cnt - 1));
      let probe iters =
        let before = Gc.minor_words () in
        for _ = 1 to iters do
          batch ()
        done;
        Gc.minor_words () -. before
      in
      Alcotest.(check (float 0.)) "100 batches allocate zero words" 0.
        (probe 100);
      Alcotest.(check (float 0.)) "200 batches allocate zero words" 0.
        (probe 200)

(* --- chaos: sparse.singular armed mid-batch ------------------------------ *)

let with_registry f = Fun.protect ~finally:Inject.disable f

let test_chaos_batch_parity () =
  with_registry (fun () ->
      (* An armed plan whose window opens mid-batch: the batched sweep must
         consume hook hits in point order — ejecting exactly the injected
         points to the boxed path — and reproduce the sequential per-point
         sweep bit for bit, hits and fires included. *)
      let sweep ~how =
        Inject.enable ~seed:7 ();
        Inject.arm Inject.sparse_singular
          (Inject.Times { skip = 3; count = 4 });
        let p = problem_of 4242 10 in
        let f = 1. /. Nodal.mean_capacitance p
        and g = 1. /. Nodal.mean_conductance p in
        let k = Int.max 4 (Nodal.order_bound p + 1) in
        let points = Array.init k (fun j -> Uc.point k j) in
        let vs =
          match how with
          | `Batch -> Nodal.eval_batch ~f ~g p points
          | `Point -> Array.map (fun s -> Nodal.eval ~f ~g p s) points
        in
        let consumed =
          (Inject.hits Inject.sparse_singular, Inject.fired Inject.sparse_singular)
        in
        (vs, consumed)
      in
      let vb, cb = sweep ~how:`Batch in
      let vp, cp = sweep ~how:`Point in
      Alcotest.(check (pair int int)) "hook consumption identical" cp cb;
      Alcotest.(check bool) "the plan actually fired" true (snd cb > 0);
      Array.iteri
        (fun j a ->
          Alcotest.(check bool)
            (Printf.sprintf "faulted point %d bit-identical" j)
            true
            (value_bits_equal a vp.(j)))
        vb)

(* --- workspace reuse, and one problem on two domains ----------------------- *)

let ua741_problem () =
  Nodal.make Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let test_workspace_reuse_invariance () =
  (* A pattern's one batch workspace serves many points and passes:
     replaying a point later — after the planes held other data — must
     reproduce the first visit bit for bit. *)
  let p = ua741_problem () in
  let f = 1. /. Nodal.mean_capacitance p and g = 1. /. Nodal.mean_conductance p in
  let k = Nodal.order_bound p + 1 in
  let first = Array.init k (fun j -> Nodal.eval ~f ~g p (Uc.point k j)) in
  (* Interleave other work: a whole-circle batch at this scale (the
     pattern's batch grows), another scale (fresh pattern and batch), then
     revisit every original point one at a time. *)
  ignore (Nodal.eval_batch ~f ~g p (Array.init k (fun j -> Uc.point (2 * k) j)));
  for j = 0 to (k / 2) + 1 do
    ignore (Nodal.eval ~f:(3. *. f) ~g:(2. *. g) p (Uc.point k j))
  done;
  Array.iteri
    (fun j v ->
      Alcotest.(check bool)
        (Printf.sprintf "point %d replays bit-identically" j)
        true
        (value_bits_equal v (Nodal.eval ~f ~g p (Uc.point k j))))
    first

let test_two_domains_one_problem () =
  (* Two domains sweep one problem at once, so both replay through the
     same batch workspace of each scale pair's pattern: the problem's lock
     must keep every batch whole.  Every value must carry the bits of the
     same sweep run on a fresh problem, one point after another. *)
  let p = ua741_problem () in
  let f = 1. /. Nodal.mean_capacitance p and g = 1. /. Nodal.mean_conductance p in
  let scales =
    Array.map
      (fun (a, b) -> (a *. f, b *. g))
      [| (1., 1.); (2., 1.); (1., 3.); (0.5, 2.); (10., 0.25); (0.1, 5.) |]
  in
  let k = Nodal.order_bound p + 1 in
  let points = Array.init k (fun j -> Uc.point k j) in
  let fresh = ua741_problem () in
  let expected =
    Array.map (fun (f, g) -> Array.map (fun s -> Nodal.eval ~f ~g fresh s) points) scales
  in
  let sweep () =
    let mismatches = ref 0 in
    let check want got = if not (value_bits_equal want got) then incr mismatches in
    for _ = 1 to 5 do
      Array.iteri
        (fun i (f, g) ->
          Array.iter2 check expected.(i) (Nodal.eval_batch ~f ~g p points);
          Array.iteri (fun j s -> check expected.(i).(j) (Nodal.eval ~f ~g p s)) points)
        scales
    done;
    !mismatches
  in
  let other = Domain.spawn sweep in
  let here = sweep () in
  let there = Domain.join other in
  Alcotest.(check (pair int int)) "values differing from the sequential sweep" (0, 0)
    (here, there)

(* --- eject accounting ---------------------------------------------------- *)

let test_batch_counters () =
  let module Obs = Symref_obs.Metrics in
  let module Snapshot = Symref_obs.Snapshot in
  let sweep () =
    let p = problem_of 99 8 in
    let f = 1. /. Nodal.mean_capacitance p
    and g = 1. /. Nodal.mean_conductance p in
    let k = Int.max 4 (Nodal.order_bound p + 1) in
    let points = Array.init k (fun j -> Uc.point k j) in
    ignore (Nodal.eval_batch ~f ~g p points);
    k
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      (* Clean sweep: every point served by the replay, nothing ejected. *)
      let k = sweep () in
      let s = Snapshot.capture () in
      let v = Snapshot.value s in
      Alcotest.(check int) "every point replayed" k (v Obs.lu_refactor);
      Alcotest.(check int) "no ejects" 0 (v Obs.kernel_batch_ejects);
      Alcotest.(check int) "no full factorisations" 0 (v Obs.lu_factor);
      (* Injected sweep: each fired point is ejected and counted exactly
         once; served + ejected still covers every point, so nothing is
         double-counted. *)
      Obs.reset ();
      with_registry (fun () ->
          Inject.enable ~seed:1 ();
          Inject.arm Inject.sparse_singular (Inject.Times { skip = 1; count = 2 });
          let k = sweep () in
          let fired = Inject.fired Inject.sparse_singular in
          let v = Snapshot.value (Snapshot.capture ()) in
          Alcotest.(check bool) "the plan actually fired" true (fired > 0);
          Alcotest.(check int) "served + ejected = points" k
            (v Obs.lu_refactor + v Obs.kernel_batch_ejects);
          Alcotest.(check int) "injected ejects are not threshold fallbacks" 0
            (v Obs.refactor_fallbacks);
          (* The fired points went straight to Sparse.factor. *)
          Alcotest.(check bool) "ejected points were factorised from scratch"
            true
            (v Obs.lu_factor >= v Obs.kernel_batch_ejects)))

(* --- one elimination program per circuit ---------------------------------- *)

(* A 32-section ladder, and a five-section gm-C cascade whose pole
   frequencies span four decades. *)
let ladder_circuit = Ladder.circuit ~spread:1.05 32

let biquad_circuit =
  Biquad.cascade
    (List.init 5 (fun i ->
         { Biquad.f0_hz = 1e5 *. (10. ** float_of_int i); q = 0.6 +. float_of_int i; gm = 50e-6 }))

let vin_problem c =
  Nodal.make c ~input:(Nodal.Vsrc_element "vin") ~output:(Nodal.Out_node "out")

(* The distinct scale pairs a reference generation visits, in first-visit
   order: the initial pair comes first. *)
let scale_pairs (r : Reference.t) =
  List.fold_left
    (fun acc (b : Adaptive.band_report) ->
      let pair = (b.Adaptive.scale.Scaling.f, b.Adaptive.scale.Scaling.g) in
      if List.mem pair acc then acc else acc @ [ pair ])
    []
    (r.Reference.num.Adaptive.reports @ r.Reference.den.Adaptive.reports)

let vin_pairs c =
  scale_pairs
    (Reference.generate c ~input:(Nodal.Vsrc_element "vin") ~output:(Nodal.Out_node "out"))

let with_counters f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let x = f () in
      (x, Snapshot.capture ()))

let test_program_choice_order_free () =
  (* Which program serves a scale pair is a function of the problem and
     the pair alone: sweeping the pairs with a tilted one first, or the
     initial one first, gives the same bits and the same learnings. *)
  List.iter
    (fun (name, make, pairs) ->
      let sweep order =
        let p = make () in
        let k = Int.max 4 (Nodal.order_bound p + 1) in
        let points = Array.init k (fun j -> Uc.point k j) in
        with_counters (fun () ->
            List.map (fun (f, g) -> ((f, g), Nodal.eval_batch ~f ~g p points)) order)
      in
      let initial_first, c1 = sweep pairs in
      let tilted_first, c2 = sweep (List.rev pairs) in
      List.iter
        (fun (pair, vs) ->
          let ws = List.assoc pair tilted_first in
          Array.iteri
            (fun j v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s (%g, %g) point %d bit-identical" name (fst pair)
                   (snd pair) j)
                true (value_bits_equal v ws.(j)))
            vs)
        initial_first;
      let learned s = Snapshot.value s Obs.lu_symbolic in
      Alcotest.(check int) (name ^ ": same learnings either way") (learned c1) (learned c2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d learnings for %d scale pairs" name (learned c1)
           (List.length pairs))
        true
        (learned c1 < List.length pairs))
    [
      ( "ua741",
        ua741_problem,
        scale_pairs
          (Reference.generate Ua741.circuit
             ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
             ~output:(Nodal.Out_node Ua741.output)) );
      ("ladder-32", (fun () -> vin_problem ladder_circuit), vin_pairs ladder_circuit);
    ]

let test_tilted_pairs_share_or_learn () =
  (* A ladder's tilted pairs pass the replay at s = i and share the program
     learned at the initial pair; a biquad cascade's fail it and learn
     programs of their own. *)
  let program p (f, g) = Option.get (Nodal.elimination_program ~f ~g p) in
  let ladder_pairs = vin_pairs ladder_circuit in
  let p = vin_problem ladder_circuit in
  let home = program p (List.hd ladder_pairs) in
  Alcotest.(check bool) "the ladder visits tilted pairs" true (List.length ladder_pairs > 1);
  List.iter
    (fun pair ->
      Alcotest.(check bool)
        (Printf.sprintf "ladder (%g, %g) replays the circuit program" (fst pair) (snd pair))
        true
        (program p pair == home))
    ladder_pairs;
  let biquad_pairs = vin_pairs biquad_circuit in
  let p = vin_problem biquad_circuit in
  let (), counters =
    with_counters (fun () ->
        let home = program p (List.hd biquad_pairs) in
        List.iter
          (fun pair ->
            Alcotest.(check bool)
              (Printf.sprintf "biquad (%g, %g) learns its own program" (fst pair) (snd pair))
              true
              (program p pair != home))
          (List.tl biquad_pairs))
  in
  Alcotest.(check bool) "the cascade visits tilted pairs" true (List.length biquad_pairs > 1);
  Alcotest.(check int) "one learning per biquad scale pair" (List.length biquad_pairs)
    (Snapshot.value counters Obs.lu_symbolic)

let test_physical_sweep_no_ejects () =
  (* A sweep at f = g = 1 and s = j 2 pi f, as mc and simplify run it:
     the program learned at the circuit's balanced initial pair keeps
     every pivot above the threshold floor, where one learned at s = i
     with f = g = 1 (capacitor entries 1e-12 of a conductance) did not. *)
  let c = Parser.parse_file (Example_netlists.path "two_stage_bjt.cir") in
  let p = Nodal.make c ~input:(Nodal.Vsrc_element "v1") ~output:(Nodal.Out_node "c2") in
  let points =
    Array.init 33 (fun k ->
        { Complex.re = 0.; im = 2. *. Float.pi *. (10. ** (float_of_int k /. 4.)) })
  in
  let values, counters = with_counters (fun () -> Nodal.eval_batch p points) in
  Alcotest.(check int) "no point ejected" 0 (Snapshot.value counters Obs.kernel_batch_ejects);
  Alcotest.(check int) "every point replayed" (Array.length points)
    (Snapshot.value counters Obs.lu_refactor);
  Alcotest.(check bool) "no singular point" false
    (Array.exists (fun v -> v.Nodal.singular) values)

let suite =
  [
    ( "batch",
      [
        QCheck_alcotest.to_alcotest prop_sparse_batch_identity;
        Alcotest.test_case "threshold eject parity" `Quick test_eject_parity;
        QCheck_alcotest.to_alcotest prop_det_exponent_range;
        Alcotest.test_case "det exponent edge cases" `Quick test_det_exponent_edges;
        QCheck_alcotest.to_alcotest prop_nodal_batch_identity;
        Alcotest.test_case "zero allocation per batch" `Quick
          test_zero_alloc_batch;
        Alcotest.test_case "workspace reuse invariance" `Quick
          test_workspace_reuse_invariance;
        Alcotest.test_case "one problem, two domains: same bits" `Quick
          test_two_domains_one_problem;
        Alcotest.test_case "chaos: sparse.singular armed mid-batch" `Quick
          test_chaos_batch_parity;
        Alcotest.test_case "batch counters and eject accounting" `Quick
          test_batch_counters;
        Alcotest.test_case "program choice is order-free" `Quick
          test_program_choice_order_free;
        Alcotest.test_case "tilted pairs share the program or learn their own"
          `Quick test_tilted_pairs_share_or_learn;
        Alcotest.test_case "physical-frequency sweep ejects nothing" `Quick
          test_physical_sweep_no_ejects;
      ] );
  ]
