(* The kernels around the LU against their oracle: [Kernel_oracle] keeps
   the allocating versions the recorded outputs were made with, and the
   current code must reproduce them bit for bit:
   - the exponent read from the bits is [Float.frexp]'s, and [Extfloat] and
     [Extcomplex] normalise as they did, over the whole finite range;
   - [Epoly.eval]'s unboxed Horner is the [Extcomplex] fold;
   - the table-indexed transforms are the per-term [Unit_circle.point]
     ones, for k = 1..256;
   - [Writer.canonical] is [render ~value:(Printf.sprintf "%h")];
   - the parser gives the same netlist or the same error, and
     [Units.parse] the same number.

   Every case is drawn from one seed, so a failure prints as a seed and
   replays exactly. *)

module O = Kernel_oracle
module Ef = Symref_numeric.Extfloat
module Ec = Symref_numeric.Extcomplex
module Epoly = Symref_poly.Epoly
module Dft = Symref_dft.Dft
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Units = Symref_spice.Units
module N = Symref_circuit.Netlist
module Element = Symref_circuit.Element
module Random_net = Symref_circuit.Random_net
module Ladder = Symref_circuit.Rc_ladder
module Ua741 = Symref_circuit.Ua741

let bits = Int64.bits_of_float
let same a b = Int64.equal (bits a) (bits b)
let fail fmt = QCheck2.Test.fail_reportf fmt

(* A check from a unit test: the property helpers fail through QCheck's
   report, which surfaces here as an exception. *)
let expect what check =
  match check () with
  | true -> ()
  | false -> Alcotest.failf "%s differs from the oracle" what
  | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)

(* --- floats across the whole finite range --- *)

let of_parts ~neg ~biased ~mantissa =
  Int64.float_of_bits
    (Int64.logor
       (Int64.shift_left (Int64.of_int ((if neg then 0x800 else 0) lor biased)) 52)
       (Int64.of_int mantissa))

(* Zeros, the smallest and largest subnormals, the extremes of the normal
   range and the edges of [0.5, 1). *)
let specials =
  let pos =
    [ 0.; Float.succ 0.; Float.pred Float.min_float; Float.min_float; Float.succ Float.min_float;
      Float.max_float; Float.pred Float.max_float; 0.5; Float.pred 1.; 1.; Float.succ 0.5 ]
  in
  Array.of_list (pos @ List.map Float.neg pos)

(* Random bit patterns (any sign, any finite exponent), subnormals, powers
   of two and the specials. *)
let random_float st =
  let int k = Random.State.int st k in
  let neg = Random.State.bool st in
  let mantissa () = (int (1 lsl 26) lsl 26) lor int (1 lsl 26) in
  match int 8 with
  | 0 | 1 | 2 -> of_parts ~neg ~biased:(int 2047) ~mantissa:(mantissa ())
  | 3 -> of_parts ~neg ~biased:0 ~mantissa:(mantissa ())
  | 4 -> of_parts ~neg ~biased:0 ~mantissa:(1 lsl int 52)
  | 5 -> Float.ldexp (if neg then -1. else 1.) (int 2098 - 1074)
  | 6 -> of_parts ~neg ~biased:(1 + int 2046) ~mantissa:0
  | _ -> specials.(int (Array.length specials))

let ef_same (x : Ef.t) (o : O.Extfloat.t) = same x.Ef.m o.O.Extfloat.m && x.Ef.e = o.O.Extfloat.e

let ec_same (x : Ec.t) (o : O.Extcomplex.t) =
  same x.Ec.c.Complex.re o.O.Extcomplex.c.Complex.re
  && same x.Ec.c.Complex.im o.O.Extcomplex.c.Complex.im
  && x.Ec.e = o.O.Extcomplex.e

let to_oracle (z : Ec.t) = { O.Extcomplex.c = z.Ec.c; e = z.Ec.e }

(* One float against the oracle: the exponent, and [Extfloat]'s and
   [Extcomplex]'s normalisation of it at exponent [e]. *)
let check_float x e =
  if Ef.frexp_exp x <> snd (Float.frexp x) then
    fail "frexp_exp %h = %d, Float.frexp says %d" x (Ef.frexp_exp x) (snd (Float.frexp x))
  else if not (ef_same (Ef.make ~m:x ~e) (O.Extfloat.norm x e)) then
    fail "Extfloat.make %h %d differs" x e
  else if not (ec_same (Ec.make ~c:{ Complex.re = x; im = 0. } ~e) (O.Extcomplex.norm_mantissa { Complex.re = x; im = 0. } e))
  then fail "Extcomplex.make (%h, 0) %d differs" x e
  else true

let prop_floats =
  QCheck2.Test.make ~name:"frexp_exp and normalisation = Float.frexp, bitwise" ~count:2000
    ~print:(Printf.sprintf "seed %d") (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let e = Random.State.int st 4001 - 2000 in
      let re = random_float st and im = random_float st in
      check_float re e && check_float im e
      && (ec_same (Ec.make ~c:{ Complex.re; im } ~e) (O.Extcomplex.norm_mantissa { Complex.re; im } e)
         || fail "Extcomplex.make (%h, %h) %d differs" re im e))

(* Every finite biased exponent, both signs, with mantissas that cover the
   field's edges. *)
let test_every_exponent () =
  let mantissas = [ 0; 1; 2; 1 lsl 51; (1 lsl 51) + 1; (1 lsl 52) - 1; 0x5555555555555; 0xAAAAAAAAAAAAA ] in
  for biased = 0 to 2046 do
    List.iter
      (fun mantissa ->
        List.iter
          (fun neg ->
            let x = of_parts ~neg ~biased ~mantissa in
            expect (Printf.sprintf "%h" x) (fun () -> check_float x 0))
          [ false; true ])
      mantissas
  done

(* --- extended-range arithmetic and the Horner fold --- *)

let random_ef st =
  if Random.State.int st 5 = 0 then Ef.zero
  else Ef.make ~m:(random_float st) ~e:(Random.State.int st 4001 - 2000)

let random_ec st =
  let e = Random.State.int st 4001 - 2000 in
  let c =
    match Random.State.int st 6 with
    | 0 -> Complex.zero
    | 1 -> { Complex.re = random_float st; im = 0. }
    | 2 -> { Complex.re = 0.; im = random_float st }
    | _ -> { Complex.re = random_float st; im = random_float st }
  in
  Ec.make ~c ~e

let prop_arith =
  QCheck2.Test.make ~name:"Extcomplex mul and add = the frexp oracle, bitwise" ~count:2000
    ~print:(Printf.sprintf "seed %d") (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let a = random_ec st in
      (* Exponents within 66 of each other make [add] align (up to the
         60-bit cut-off), and so shift the smaller operand's mantissa
         towards the subnormals. *)
      let b =
        let b = random_ec st in
        if Random.State.bool st then Ec.make ~c:b.Ec.c ~e:(a.Ec.e + Random.State.int st 133 - 66) else b
      in
      let x = random_ef st in
      (ec_same (Ec.mul a b) (O.Extcomplex.mul (to_oracle a) (to_oracle b)) || fail "mul differs")
      && (ec_same (Ec.add a b) (O.Extcomplex.add (to_oracle a) (to_oracle b)) || fail "add differs")
      && (ec_same (Ec.of_extfloat x) (O.Extcomplex.of_extfloat x) || fail "of_extfloat differs"))

let prop_horner =
  QCheck2.Test.make ~name:"Epoly.eval = the Extcomplex fold, bitwise" ~count:1000
    ~print:(Printf.sprintf "seed %d") (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = Random.State.int st 32 in
      (* Exponents within +-2000: close together (the sums align and
         cancel) or spread over the whole range (gaps past 60 drop the
         smaller operand). *)
      let spread = if Random.State.bool st then 40 else 2000 in
      let e0 = Random.State.int st (4001 - (2 * spread)) - 2000 + spread in
      let coeff () =
        if Random.State.int st 5 = 0 then Ef.zero
        else Ef.make ~m:(random_float st) ~e:(e0 + Random.State.int st (2 * spread + 1) - spread)
      in
      let z =
        if Random.State.int st 8 = 0 then Ec.zero
        else
          let z = random_ec st in
          if Random.State.bool st then Ec.make ~c:z.Ec.c ~e:(Random.State.int st 41 - 20) else z
      in
      let p =
        if Random.State.int st 4 = 0 then
          (* One multiply-add whose exponent gap lands on either side of
             the 60-bit cut-off, with either operand leading. *)
          let mantissa () = (if Random.State.bool st then 1. else -1.) *. (0.5 +. Random.State.float st 0.5) in
          let c1 = Ef.make ~m:(mantissa ()) ~e:(Random.State.int st 201 - 100) in
          let gap = 56 + Random.State.int st 10 in
          let gap = if Random.State.bool st then gap else -gap in
          let c0 = Ef.make ~m:(mantissa ()) ~e:(c1.Ef.e + z.Ec.e + gap) in
          Epoly.of_coeffs [| c0; c1 |]
        else Epoly.of_coeffs (Array.init n (fun _ -> coeff ()))
      in
      let got = Epoly.eval p z and want = O.Epoly.eval (Epoly.coeffs p) (to_oracle z) in
      ec_same got want
      || fail "degree %d: got (%h, %h) 2^%d, the fold gives (%h, %h) 2^%d" (Epoly.degree p)
           got.Ec.c.Complex.re got.Ec.c.Complex.im got.Ec.e want.O.Extcomplex.c.Complex.re
           want.O.Extcomplex.c.Complex.im want.O.Extcomplex.e)

(* --- transforms --- *)

let same_array a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : Complex.t) (y : Complex.t) -> same x.re y.re && same x.im y.im) a b

let random_values st n =
  Array.init n (fun _ ->
      match Random.State.int st 8 with
      | 0 -> Complex.zero
      | 1 -> { Complex.re = random_float st; im = random_float st }
      | _ ->
          { Complex.re = Random.State.float st 2. -. 1.; im = Random.State.float st 2. -. 1. })

let check_dft st k =
  let half = random_values st ((k / 2) + 1) and x = random_values st k in
  (same_array (Dft.inverse_real_spectrum k half) (O.Dft.inverse_real_spectrum k half)
  || fail "k = %d: inverse_real_spectrum differs" k)
  && (same_array (Dft.forward x) (O.Dft.forward x) || fail "k = %d: forward differs" k)
  && (same_array (Dft.inverse x) (O.Dft.inverse x) || fail "k = %d: inverse differs" k)

let prop_dft =
  QCheck2.Test.make ~name:"table-indexed DFTs = per-term Unit_circle.point, bitwise" ~count:200
    ~print:(fun (k, seed) -> Printf.sprintf "k %d, seed %d" k seed)
    QCheck2.Gen.(pair (int_range 1 256) (int_range 0 1_000_000))
    (fun (k, seed) -> check_dft (Random.State.make [| seed |]) k)

let test_every_k () =
  let st = Random.State.make [| 20260806 |] in
  for k = 1 to 256 do
    expect (Printf.sprintf "k = %d" k) (fun () -> check_dft st k)
  done

(* --- netlist text --- *)

type outcome = Netlist of N.t | Error of int * string | Raised of string

let outcome parse text =
  match parse text with
  | c -> Netlist c
  | exception Parser.Parse_error { line; message } -> Error (line, message)
  | exception O.Parser.Parse_error { line; message } -> Error (line, message)
  | exception e -> Raised (Printexc.to_string e)

let describe = function
  | Netlist _ -> "a netlist"
  | Error (line, message) -> Printf.sprintf "error at line %d: %s" line message
  | Raised e -> "exception " ^ e

(* The same netlist (structurally) or the same error, and the same
   canonical bytes. *)
let check_text what text =
  match (outcome Parser.parse_string text, outcome O.Parser.parse_string text) with
  | Netlist c, Netlist o ->
      (c = o || fail "%s: the netlists differ" what)
      && (String.equal (Writer.canonical c) (O.Writer.canonical o)
         || fail "%s: the canonical text differs" what)
  | got, want ->
      got = want || fail "%s: got %s, the oracle gives %s" what (describe got) (describe want)

(* The perfbench families: random nets and the op-amp through
   [Writer.to_string], ladders at full precision. *)
let family_texts () =
  let nets =
    List.concat_map
      (fun nodes -> List.map (fun seed -> Writer.to_string (Random_net.circuit ~seed ~nodes ())) [ 1; 7; 12345 ])
      [ 24; 31; 40; 48 ]
  in
  let ladder sections spread =
    let c = Ladder.circuit ~spread sections in
    let node n = N.node_name c n in
    let b = Buffer.create 4096 in
    Printf.bprintf b "ladder-%d\n" sections;
    List.iter
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Vsrc { p; m; volts } ->
            Printf.bprintf b "%s %s %s ac %.17g\n" e.Element.name (node p) (node m) volts
        | Element.Resistor { a; b = b'; ohms } ->
            Printf.bprintf b "%s %s %s %.17g\n" e.Element.name (node a) (node b') ohms
        | Element.Capacitor { a; b = b'; farads } ->
            Printf.bprintf b "%s %s %s %.17g\n" e.Element.name (node a) (node b') farads
        | _ -> ())
      (N.elements c);
    Buffer.add_string b ".end\n";
    Buffer.contents b
  in
  let ladders = List.concat_map (fun n -> [ ladder n 1.; ladder n 1.0731 ]) [ 32; 37; 42 ] in
  let opamps =
    List.map
      (fun k ->
        let c = List.fold_left (fun c e -> N.scale_element c e k) Ua741.circuit [ "cc"; "r1"; "r9" ] in
        let c =
          N.extend c (fun b ->
              N.Builder.vsrc b "srcp" ~p:Ua741.input_p ~m:"0" 0.5;
              N.Builder.vsrc b "srcm" ~p:Ua741.input_n ~m:"0" (-0.5))
        in
        Writer.to_string c)
      [ 0.8; 1.; 1.1734 ]
  in
  nets @ ladders @ opamps

let test_fixed_netlists () =
  let dir = Example_netlists.dir () in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cir")
    |> List.sort compare
  in
  Alcotest.(check bool) "the examples are found" true (List.length examples >= 6);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      expect f (fun () -> check_text f text))
    examples;
  List.iteri
    (fun i text ->
      let what = Printf.sprintf "family netlist %d" i in
      expect what (fun () -> check_text what text))
    (family_texts ())

(* A random netlist in the accepted dialect, upper case, tabs, '=',
   comments, '+' continuations and unit suffixes included; about one in
   five carries a deliberate error. *)
let random_netlist seed =
  let st = Random.State.make [| seed |] in
  let int k = Random.State.int st k in
  let pick a = a.(int (Array.length a)) in
  let mixed s = String.map (fun c -> if int 3 = 0 then Char.uppercase_ascii c else c) s in
  let b = Buffer.create 512 in
  let sep () = pick [| " "; " "; "  "; "\t"; " \t"; " = "; "=" |] in
  let nodes = 2 + int 8 in
  let node () =
    match int 10 with
    | 0 -> pick [| "0"; "gnd"; "GND" |]
    | _ -> mixed (Printf.sprintf "n%d" (1 + int nodes))
  in
  let value ~signed =
    let digits = pick [| "1"; "2.2"; "4.7"; "10"; "0.5"; ".33"; "1e3"; "3.3e-2"; "1.5E+2"; "12e"; "7" |] in
    let sign = if signed && int 4 = 0 then "-" else if int 10 = 0 then "+" else "" in
    let suffix = pick [| ""; ""; "k"; "K"; "meg"; "MEG"; "Meg"; "m"; "M"; "u"; "n"; "p"; "f"; "t"; "g"; "mil" |] in
    let unit = pick [| ""; ""; ""; "ohm"; "Ohm"; "F"; "hz"; "v"; "A"; "s" |] in
    sign ^ digits ^ suffix ^ unit
  in
  let fields parts = String.concat "" (List.concat_map (fun p -> [ sep (); p ]) parts) in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  (* The last field may go on a continuation line. *)
  let card name parts =
    let rec split = function
      | [ last ] when int 4 = 0 -> ([], Some last)
      | [] -> ([], None)
      | p :: rest -> let a, c = split rest in (p :: a, c)
    in
    let head, cont = split parts in
    line (pick [| ""; " "; "\t" |] ^ name ^ fields head);
    Option.iter (fun p -> line (pick [| "+"; "+ "; "+\t" |] ^ p)) cont
  in
  line (pick [| "Random Netlist"; "  TITLE with CAPS  "; "t" |] ^ string_of_int seed);
  if int 20 = 0 then line "+ orphan continuation";
  let bjt = int 3 = 0 and mos = int 3 = 0 in
  if bjt then line ".MODEL QN BJTSS IC=1m BETA=100 va=50";
  if mos then line ".model mn mosss gm=1m GDS=10u cgs=1p";
  let has_sub = int 3 = 0 in
  if has_sub then begin
    line ".SUBCKT Stage in OUT";
    card "Rin" [ "in"; "mid"; value ~signed:false ];
    card "c1" [ "mid"; "0"; value ~signed:false ];
    card "G1" [ "out"; "0"; "mid"; "0"; value ~signed:true ];
    card "r2" [ "OUT"; "0"; value ~signed:false ];
    line ".ends"
  end;
  let vsrcs = ref [] in
  for i = 1 to 3 + int 12 do
    if int 6 = 0 then line (pick [| "* a comment"; "*"; "  * indented comment"; ""; "   " |]);
    let name letter = mixed (Printf.sprintf "%c%d%s" letter i (pick [| ""; "a"; "_x" |])) in
    match int 12 with
    | 0 | 1 -> card (name 'r') [ node (); node (); value ~signed:false ]
    | 2 | 3 -> card (name 'c') [ node (); node (); value ~signed:false ]
    | 4 -> card (name 'l') [ node (); node (); value ~signed:false ]
    | 5 -> card (name 'g') [ node (); node (); node (); node (); value ~signed:true ]
    | 6 -> card (name 'e') [ node (); node (); node (); node (); value ~signed:true ]
    | 7 ->
        let v = name 'v' in
        vsrcs := v :: !vsrcs;
        card v ([ node (); "0" ] @ (if int 2 = 0 then [ pick [| "ac"; "AC"; "dc" |] ] else []) @ [ value ~signed:true ])
    | 8 -> card (name 'i') [ node (); node (); pick [| "ac"; "AC" |]; value ~signed:true ]
    | 9 -> (
        match !vsrcs with
        | v :: _ -> card (name (pick [| 'f'; 'h' |])) [ node (); node (); v; value ~signed:true ]
        | [] -> card (name 'r') [ node (); node (); value ~signed:false ])
    | 10 when has_sub -> card (name 'x') [ node (); node (); pick [| "stage"; "STAGE" |] ]
    | _ -> (
        match int 4 with
        | 0 when bjt -> card (name 'q') [ node (); node (); node (); pick [| "qn"; "QN" |] ]
        | 1 when mos -> card (name 'm') [ node (); node (); node (); "mn" ]
        | _ -> card (name 'r') [ node (); node (); value ~signed:false ])
  done;
  (* Deliberate errors: a short card, an unknown card or directive, a bad
     number, an undefined model or subcircuit. *)
  if int 5 = 0 then
    line
      (pick
         [| "R99 n1"; "Z1 a b 1"; ".tran 1n 1u"; "R98 n1 n2 1x2"; "Q97 a b c nomodel"; "X96 a b nosub";
            ".ends"; "V95 n1 0 ac 1 2" |]);
  if int 4 > 0 then line (pick [| ".end"; ".END"; ".end\nR_after n1 n2 1k" |]);
  Buffer.contents b

let prop_parser =
  QCheck2.Test.make ~name:"parser and canonical text = the Printf oracle" ~count:500
    ~print:(fun seed -> Printf.sprintf "seed %d:\n%s" seed (random_netlist seed))
    (QCheck2.Gen.int_range 0 1_000_000)
    (fun seed -> check_text (Printf.sprintf "seed %d" seed) (random_netlist seed))

(* [Units.parse] on fields with and without surrounding blanks and upper
   case. *)
let prop_units =
  QCheck2.Test.make ~name:"Units.parse = the copying oracle" ~count:2000
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck2.Gen.(
      map
        (fun parts -> String.concat "" parts)
        (list_size (int_range 0 6)
           (oneofl
              [ "1"; "2.5"; "."; "+"; "-"; "e"; "E"; "e-3"; "E+2"; "0"; "meg"; "MEG"; "m"; "M"; "k"; "K"; "u";
                "n"; "p"; "f"; "t"; "g"; "ohm"; "Hz"; "x"; " "; "\t"; "_"; "1e"; "3e+" ])))
    (fun s ->
      match (Units.parse s, O.Units.parse s) with
      | Some a, Some b -> same a b || fail "%S: %h, the oracle reads %h" s a b
      | None, None -> true
      | _ -> fail "%S: one side reads a number, the other none" s)

(* The [%h] text of 100,000 random floats, through whole netlists. *)
let test_hex_values () =
  let st = Random.State.make [| 414243 |] in
  for circuit = 1 to 100 do
    let b = N.Builder.create ~title:(Printf.sprintf "values %d" circuit) () in
    for i = 1 to 1000 do
      N.Builder.vsrc b (Printf.sprintf "v%d" i) ~p:(Printf.sprintf "n%d" i) ~m:"0" (random_float st)
    done;
    let c = N.Builder.finish b in
    if not (String.equal (Writer.canonical c) (O.Writer.canonical c)) then
      Alcotest.failf "circuit %d: the canonical text differs from Printf's %%h" circuit
  done

let suite =
  [
    ( "kernel-oracle",
      [
        Alcotest.test_case "every exponent = Float.frexp" `Quick test_every_exponent;
        QCheck_alcotest.to_alcotest prop_floats;
        QCheck_alcotest.to_alcotest prop_arith;
        QCheck_alcotest.to_alcotest prop_horner;
        Alcotest.test_case "every k in 1..256 = per-term DFT" `Quick test_every_k;
        QCheck_alcotest.to_alcotest prop_dft;
        Alcotest.test_case "examples and perfbench families" `Quick test_fixed_netlists;
        QCheck_alcotest.to_alcotest prop_parser;
        QCheck_alcotest.to_alcotest prop_units;
        Alcotest.test_case "%h on 100,000 floats" `Quick test_hex_values;
      ] );
  ]
