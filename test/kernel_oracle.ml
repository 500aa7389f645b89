(* The kernels around the LU as they stood before they stopped allocating,
   copied verbatim: the [Float.frexp] normalisations of
   lib/numeric/extfloat.ml and lib/numeric/extcomplex.ml, with the
   [Extcomplex] operations the Horner fold of lib/poly/epoly.ml runs; the
   transforms of lib/dft/dft.ml that call [Unit_circle.point] for every
   term; the [Printf]-based writer of lib/spice/writer.ml; lib/spice/units.ml's
   [parse]; and the parser of lib/spice/parser.ml, which splits each card
   twice.  Only what the comparisons need is kept, so running the oracle
   touches no global state.  [Test_kernel_oracle] checks the current code
   against it bit for bit.  Do not edit the algorithms here; they are the
   reference. *)

module Netlist = Symref_circuit.Netlist
module Element = Symref_circuit.Element
module Devices = Symref_circuit.Devices
module Ef = Symref_numeric.Extfloat
module Unit_circle = Symref_dft.Unit_circle

module Extfloat = struct
  type t = { m : float; e : int }

  let zero = { m = 0.; e = 0 }

  (* Renormalise an arbitrary finite mantissa into [0.5, 1). [frexp] already
     returns such a mantissa, so normalisation is a single call. *)
  let norm m e =
    if m = 0. then zero
    else
      let m', de = Float.frexp m in
      { m = m'; e = e + de }
end

module Extcomplex = struct
  type t = { c : Complex.t; e : int }

  let zero = { c = Complex.zero; e = 0 }

  (* Normalise so that the larger component's magnitude lies in [0.5, 1); this
     keeps both components of the mantissa representable for any value. *)
  let norm_mantissa (c : Complex.t) e =
    let a = Float.max (Float.abs c.re) (Float.abs c.im) in
    if a = 0. then zero
    else
      let _, de = Float.frexp a in
      { c = { re = Float.ldexp c.re (-de); im = Float.ldexp c.im (-de) }; e = e + de }

  (* [Extfloat.t] is the current type: its mantissa and exponent are read
     as the old [of_extfloat] read them. *)
  let of_extfloat (x : Ef.t) = norm_mantissa { re = x.Ef.m; im = 0. } x.Ef.e

  let is_zero x = x.c = Complex.zero
  let mul a b = norm_mantissa (Complex.mul a.c b.c) (a.e + b.e)

  let add a b =
    if is_zero a then b
    else if is_zero b then a
    else
      let hi, lo = if a.e >= b.e then (a, b) else (b, a) in
      let gap = hi.e - lo.e in
      if gap > 60 then hi
      else
        let scaled =
          { Complex.re = Float.ldexp lo.c.re (-gap); im = Float.ldexp lo.c.im (-gap) }
        in
        norm_mantissa (Complex.add hi.c scaled) hi.e
end

module Epoly = struct
  module Ec = Extcomplex

  (* [Epoly.t] is an [Ef.t array]; the fold takes the coefficients. *)
  let eval (p : Ef.t array) (z : Ec.t) =
    let acc = ref Ec.zero in
    for i = Array.length p - 1 downto 0 do
      acc := Ec.add (Ec.mul !acc z) (Ec.of_extfloat p.(i))
    done;
    !acc
end

module Dft = struct
  let transform ~sign (x : Complex.t array) =
    let k = Array.length x in
    if k = 0 then [||]
    else
      Array.init k (fun i ->
          let acc = ref Complex.zero in
          for j = 0 to k - 1 do
            (* w^(sign * i * j); indices into the root table keep the twiddle
               factors exact on the axes. *)
            let idx = sign * i * j mod k in
            acc := Complex.add !acc (Complex.mul x.(j) (Unit_circle.point k idx))
          done;
          !acc)

  let forward x = transform ~sign:1 x

  let inverse x =
    let k = Array.length x in
    if k = 0 then [||]
    else
      let inv_k = 1. /. float_of_int k in
      Array.map
        (fun z -> { Complex.re = z.Complex.re *. inv_k; im = z.Complex.im *. inv_k })
        (transform ~sign:(-1) x)

  let inverse_real_spectrum k half =
    if k < 1 then invalid_arg "Dft.inverse_real_spectrum: k must be >= 1";
    if Array.length half <> (k / 2) + 1 then
      invalid_arg "Dft.inverse_real_spectrum: need k/2 + 1 values";
    let inv_k = 1. /. float_of_int k in
    (* Highest index whose conjugate partner k-j is a distinct point; the
       self-conjugate points (j = 0 and, for even k, j = k/2) contribute on
       their own and are the only carriers of imaginary residue. *)
    let jmax = (k - 1) / 2 in
    Array.init k (fun i ->
        let re = ref half.(0).Complex.re and im = ref half.(0).Complex.im in
        for j = 1 to jmax do
          (* The pair x_j w^(-ij) + conj(x_j) w^(ij) is 2 Re (x_j w^(-ij))
             exactly — one twiddle lookup and one complex multiply where the
             full transform pays two of each and cancels only approximately. *)
          let t = Complex.mul half.(j) (Unit_circle.point k (-i * j mod k)) in
          re := !re +. (2. *. t.Complex.re)
        done;
        if k land 1 = 0 then begin
          (* w^(-i*k/2) = (-1)^i exactly. *)
          let m = half.(k / 2) in
          if i land 1 = 0 then begin
            re := !re +. m.Complex.re;
            im := !im +. m.Complex.im
          end
          else begin
            re := !re -. m.Complex.re;
            im := !im -. m.Complex.im
          end
        end;
        { Complex.re = !re *. inv_k; im = !im *. inv_k })
end

module Units = struct
  let suffixes =
    [
      ("meg", 1e6);
      ("t", 1e12);
      ("g", 1e9);
      ("k", 1e3);
      ("m", 1e-3);
      ("u", 1e-6);
      ("n", 1e-9);
      ("p", 1e-12);
      ("f", 1e-15);
    ]

  let parse s =
    let s = String.lowercase_ascii (String.trim s) in
    if s = "" then None
    else begin
      (* Longest numeric prefix. *)
      let n = String.length s in
      let is_num_char i c =
        match c with
        | '0' .. '9' | '.' | '+' | '-' -> true
        | 'e' ->
            (* exponent only if followed by digit or sign+digit *)
            i + 1 < n
            && (match s.[i + 1] with
               | '0' .. '9' -> true
               | '+' | '-' -> i + 2 < n && s.[i + 2] >= '0' && s.[i + 2] <= '9'
               | _ -> false)
        | _ -> false
      in
      let rec span i =
        if i < n && is_num_char i s.[i] then
          if s.[i] = 'e' then
            (* consume exponent: e[+-]?digits *)
            let j = if s.[i + 1] = '+' || s.[i + 1] = '-' then i + 2 else i + 1 in
            let rec digits j = if j < n && s.[j] >= '0' && s.[j] <= '9' then digits (j + 1) else j in
            digits j
          else span (i + 1)
        else i
      in
      let stop = span 0 in
      if stop = 0 then None
      else
        match float_of_string_opt (String.sub s 0 stop) with
        | None -> None
        | Some v ->
            let rest = String.sub s stop (n - stop) in
            let mult =
              if rest = "" then Some 1.
              else
                (* "meg" first (otherwise "m" would shadow it). *)
                match
                  List.find_opt
                    (fun (suf, _) ->
                      String.length rest >= String.length suf
                      && String.sub rest 0 (String.length suf) = suf)
                    suffixes
                with
                | Some (_, m) -> Some m
                | None ->
                    (* Unknown trailing letters with no suffix: SPICE ignores
                       pure unit annotations like "ohm", "hz", "v", "a", "s". *)
                    if String.for_all (fun c -> c >= 'a' && c <= 'z') rest then Some 1.
                    else None
            in
            Option.map (fun m -> v *. m) mult
    end
end

module Writer = struct
  (* Card names are type-dispatched on their first letter, so every emitted
     name gets the canonical prefix; pure conductances (no SPICE card; may be
     negative) are written as the electrically identical self-controlled VCCS
     [G p m p m value].  [value] prints every element value. *)
  let render ~value circuit =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Netlist.title circuit);
    Buffer.add_char buf '\n';
    let node n = Netlist.node_name circuit n in
    let card letter (e : Element.t) body =
      Buffer.add_string buf
        (Printf.sprintf "%c_%s %s\n" letter (String.lowercase_ascii e.Element.name) body)
    in
    List.iter
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Resistor { a; b; ohms } ->
            card 'r' e (Printf.sprintf "%s %s %s" (node a) (node b) (value ohms))
        | Element.Conductance { a; b; siemens } ->
            card 'g' e
              (Printf.sprintf "%s %s %s %s %s" (node a) (node b) (node a) (node b)
                 (value siemens))
        | Element.Capacitor { a; b; farads } ->
            card 'c' e (Printf.sprintf "%s %s %s" (node a) (node b) (value farads))
        | Element.Inductor { a; b; henries } ->
            card 'l' e (Printf.sprintf "%s %s %s" (node a) (node b) (value henries))
        | Element.Vccs { p; m; cp; cm; gm } ->
            card 'g' e
              (Printf.sprintf "%s %s %s %s %s" (node p) (node m) (node cp) (node cm)
                 (value gm))
        | Element.Vcvs { p; m; cp; cm; gain } ->
            card 'e' e
              (Printf.sprintf "%s %s %s %s %s" (node p) (node m) (node cp) (node cm)
                 (value gain))
        | Element.Cccs { p; m; vname; gain } ->
            card 'f' e
              (Printf.sprintf "%s %s v_%s %s" (node p) (node m)
                 (String.lowercase_ascii vname) (value gain))
        | Element.Ccvs { p; m; vname; ohms } ->
            card 'h' e
              (Printf.sprintf "%s %s v_%s %s" (node p) (node m)
                 (String.lowercase_ascii vname) (value ohms))
        | Element.Isrc { a; b; amps } ->
            card 'i' e (Printf.sprintf "%s %s ac %s" (node a) (node b) (value amps))
        | Element.Vsrc { p; m; volts } ->
            card 'v' e (Printf.sprintf "%s %s ac %s" (node p) (node m) (value volts)))
      (Netlist.elements circuit);
    Buffer.add_string buf ".end\n";
    Buffer.contents buf

  let canonical = render ~value:(Printf.sprintf "%h")
end

module Parser = struct
  exception Parse_error of { line : int; message : string }

  let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

  type model = Bjt of Devices.bjt | Mos of Devices.mos

  let split_fields s =
    String.split_on_char ' ' (String.map (function '\t' | '=' -> ' ' | c -> c) s)
    |> List.filter (fun f -> f <> "")

  (* Join '+' continuation lines onto their card, keeping line numbers. *)
  let logical_lines raw =
    let rec go acc current = function
      | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
      | (lineno, line) :: rest ->
          let trimmed = String.trim line in
          if trimmed = "" || trimmed.[0] = '*' then go acc current rest
          else if trimmed.[0] = '+' then
            match current with
            | None -> fail lineno "continuation line with nothing to continue"
            | Some (n, body) ->
                go acc (Some (n, body ^ " " ^ String.sub trimmed 1 (String.length trimmed - 1))) rest
          else
            let acc = match current with None -> acc | Some c -> c :: acc in
            go acc (Some (lineno, trimmed)) rest
    in
    go [] None raw

  (* .model parameter list -> assoc of lowercase name -> value. *)
  let parse_params line fields =
    let rec go acc = function
      | [] -> acc
      | name :: value :: rest -> go ((String.lowercase_ascii name, value) :: acc) rest
      | [ name ] -> fail line "parameter %s has no value" name
    in
    go [] fields

  let param_value line params name =
    Option.map
      (fun v ->
        match Units.parse v with
        | Some x -> x
        | None -> fail line "parameter %s: bad number %S" name v)
      (List.assoc_opt name params)

  let parse_model line fields =
    match fields with
    | name :: kind :: params -> (
        let params = parse_params line params in
        let opt name = param_value line params name in
        let req name =
          match opt name with
          | Some v -> v
          | None -> fail line "model is missing parameter %s" name
        in
        match String.lowercase_ascii kind with
        | "bjtss" ->
            let ic = req "ic" in
            ( String.lowercase_ascii name,
              Bjt
                (Devices.bjt_of_bias
                   ?beta:(opt "beta") ?va:(opt "va") ?tf:(opt "tf")
                   ?cmu:(opt "cmu") ?rb:(opt "rb") ?ccs:(opt "ccs") ~ic ()) )
        | "mosss" ->
            ( String.lowercase_ascii name,
              Mos
                {
                  Devices.gm = req "gm";
                  gds = req "gds";
                  cgs = Option.value ~default:0. (opt "cgs");
                  cgd = Option.value ~default:0. (opt "cgd");
                  cdb = Option.value ~default:0. (opt "cdb");
                  csb = Option.value ~default:0. (opt "csb");
                } )
        | k -> fail line "unknown model kind %s (want bjtss or mosss)" k)
    | _ -> fail line ".model needs a name and a kind"

  let value_field line = function
    | [ v ] | [ "dc"; v ] | [ "ac"; v ] -> (
        match Units.parse v with
        | Some x -> x
        | None -> fail line "bad number %S" v)
    | [] -> fail line "missing value"
    | fs -> fail line "unexpected trailing fields: %s" (String.concat " " fs)

  let parse_string text =
    (* The first line is always the title (classic SPICE), so a ['+'] on the
       second line is an orphan continuation. *)
    match String.split_on_char '\n' text with
    | [] -> fail 0 "empty netlist"
    | title :: rest ->
        let title = String.trim title in
        if title = "" then fail 1 "missing title line";
        let cards = logical_lines (List.mapi (fun i l -> (i + 2, l)) rest) in
        let b = Netlist.Builder.create ~title () in
        (* First pass: collect .model cards (global) and .subckt bodies. *)
        let models = Hashtbl.create 8 in
        let subckts = Hashtbl.create 4 in
        (* subckt name -> ports, body cards *)
        let toplevel = ref [] in
        let rec scan current = function
          | [] -> (
              match current with
              | None -> ()
              | Some (line, name, _, _) -> fail line ".subckt %s has no .ends" name)
          | (line, card) :: rest -> (
              let fields = split_fields (String.lowercase_ascii card) in
              match (fields, current) with
              | ".model" :: margs, _ ->
                  let name, m = parse_model line margs in
                  Hashtbl.replace models name m;
                  scan current rest
              | ".subckt" :: name :: ports, None ->
                  if ports = [] then fail line ".subckt %s has no ports" name;
                  scan (Some (line, name, ports, [])) rest
              | ".subckt" :: _, Some _ -> fail line "nested .subckt definitions"
              | [ ".ends" ], Some (_, name, ports, body) ->
                  Hashtbl.replace subckts name (ports, List.rev body);
                  scan None rest
              | [ ".ends" ], None -> fail line ".ends without .subckt"
              | _, Some (l0, name, ports, body) ->
                  scan (Some (l0, name, ports, (line, card) :: body)) rest
              | _, None ->
                  toplevel := (line, card) :: !toplevel;
                  scan None rest)
        in
        scan None cards;
        let toplevel = List.rev !toplevel in
        let find_model line name =
          match Hashtbl.find_opt models (String.lowercase_ascii name) with
          | Some m -> m
          | None -> fail line "unknown model %s" name
        in
        let ended = ref false in
        (* [translate] maps node names into the current instantiation scope;
           [rename] prefixes element names.  [depth] guards subckt recursion. *)
        let rec process_card ~depth ~translate ~rename (line, card) =
          if not !ended then begin
            let fields = split_fields (String.lowercase_ascii card) in
            try
              match fields with
              | [] -> ()
              | orig :: args -> (
                  let name = rename orig in
                  let num v =
                    match Units.parse v with
                    | Some x -> x
                    | None -> fail line "bad number %S" v
                  in
                  let t = translate in
                  match (orig.[0], args) with
                  | '.', _ -> (
                      match orig with
                      | ".end" -> ended := true
                      | d -> fail line "unsupported directive %s" d)
                  | 'r', [ a; b'; v ] ->
                      Netlist.Builder.resistor b name ~a:(t a) ~b:(t b') (num v)
                  | 'c', [ a; b'; v ] ->
                      Netlist.Builder.capacitor b name ~a:(t a) ~b:(t b') (num v)
                  | 'l', [ a; b'; v ] ->
                      Netlist.Builder.inductor b name ~a:(t a) ~b:(t b') (num v)
                  | 'g', [ p; m; cp; cm; v ] ->
                      Netlist.Builder.vccs b name ~p:(t p) ~m:(t m) ~cp:(t cp)
                        ~cm:(t cm) (num v)
                  | 'e', [ p; m; cp; cm; v ] ->
                      Netlist.Builder.vcvs b name ~p:(t p) ~m:(t m) ~cp:(t cp)
                        ~cm:(t cm) (num v)
                  | 'f', [ p; m; vname; v ] ->
                      Netlist.Builder.cccs b name ~p:(t p) ~m:(t m)
                        ~vname:(rename vname) (num v)
                  | 'h', [ p; m; vname; v ] ->
                      Netlist.Builder.ccvs b name ~p:(t p) ~m:(t m)
                        ~vname:(rename vname) (num v)
                  | 'v', p :: m :: rest ->
                      Netlist.Builder.vsrc b name ~p:(t p) ~m:(t m)
                        (value_field line rest)
                  | 'i', a :: b' :: rest ->
                      Netlist.Builder.isrc b name ~a:(t a) ~b:(t b')
                        (value_field line rest)
                  | 'q', [ c; base; e; mname ] -> (
                      match find_model line mname with
                      | Bjt p -> Devices.add_bjt b name ~c:(t c) ~b:(t base) ~e:(t e) p
                      | Mos _ -> fail line "%s: %s is a MOS model" name mname)
                  | 'm', [ d; g; s; mname ] -> (
                      match find_model line mname with
                      | Mos p -> Devices.add_mos b name ~d:(t d) ~g:(t g) ~s:(t s) p
                      | Bjt _ -> fail line "%s: %s is a BJT model" name mname)
                  | 'x', _ -> (
                      (* xinst n1 .. nN subckt *)
                      if depth > 16 then fail line "subckt nesting too deep";
                      match List.rev args with
                      | [] -> fail line "%s: missing subcircuit name" name
                      | sub :: rev_nodes -> (
                          match Hashtbl.find_opt subckts sub with
                          | None -> fail line "unknown subcircuit %s" sub
                          | Some (ports, body) ->
                              let actuals = List.rev_map t rev_nodes in
                              if List.length actuals <> List.length ports then
                                fail line "%s: %s expects %d ports, got %d" name sub
                                  (List.length ports) (List.length actuals);
                              let map = List.combine ports actuals in
                              let translate' n =
                                if n = "0" || n = "gnd" then "0"
                                else
                                  match List.assoc_opt n map with
                                  | Some actual -> actual
                                  | None -> name ^ "." ^ n
                              in
                              let rename' e = name ^ "." ^ e in
                              List.iter
                                (process_card ~depth:(depth + 1)
                                   ~translate:translate' ~rename:rename')
                                body))
                  | ('r' | 'c' | 'l' | 'g' | 'e' | 'f' | 'h' | 'q' | 'm'), _ ->
                      fail line "%s: wrong number of fields" orig
                  | _ -> fail line "unknown card %s" orig)
            with Invalid_argument m -> fail line "%s" m
          end
        in
        List.iter
          (process_card ~depth:0 ~translate:Fun.id ~rename:Fun.id)
          toplevel;
        (try Netlist.Builder.finish b
         with Invalid_argument m -> fail 0 "%s" m)
end
