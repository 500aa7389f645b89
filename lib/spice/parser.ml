module Netlist = Symref_circuit.Netlist
module Devices = Symref_circuit.Devices

exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

type model = Bjt of Devices.bjt | Mos of Devices.mos

let is_separator c = c = ' ' || c = '\t' || c = '='

let lowercase_sub s i len =
  let b = Bytes.create len in
  for k = 0 to len - 1 do
    Bytes.unsafe_set b k (Char.lowercase_ascii (String.unsafe_get s (i + k)))
  done;
  Bytes.unsafe_to_string b

(* The fields of [s] from index [from] on, lowercased: the maximal runs of
   characters other than blanks, tabs and '='.  Found by index, right to
   left, so the list is built in order. *)
let split_fields ?(from = 0) s =
  let rec field_start i = if i > from && not (is_separator s.[i - 1]) then field_start (i - 1) else i in
  let rec go acc j =
    if j <= from then acc
    else if is_separator s.[j - 1] then go acc (j - 1)
    else
      let i = field_start (j - 1) in
      go (lowercase_sub s i (j - i) :: acc) i
  in
  go [] (String.length s)

(* Join '+' continuation lines onto their card, keeping line numbers; each
   card comes out split into its fields.  A continuation's fields follow
   its card's, as if the two lines were one joined by a blank. *)
let logical_lines raw =
  let rec go acc current = function
    | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
    | (lineno, line) :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '*' then go acc current rest
        else if trimmed.[0] = '+' then
          match current with
          | None -> fail lineno "continuation line with nothing to continue"
          | Some (n, fields) ->
              go acc (Some (n, fields @ split_fields ~from:1 trimmed)) rest
        else
          let acc = match current with None -> acc | Some c -> c :: acc in
          go acc (Some (lineno, split_fields trimmed)) rest
  in
  go [] None raw

(* .model parameter list -> assoc of lowercase name -> value. *)
let parse_params line fields =
  let rec go acc = function
    | [] -> acc
    | name :: value :: rest -> go ((name, value) :: acc) rest
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
      match kind with
      | "bjtss" ->
          let ic = req "ic" in
          ( name,
            Bjt
              (Devices.bjt_of_bias
                 ?beta:(opt "beta") ?va:(opt "va") ?tf:(opt "tf")
                 ?cmu:(opt "cmu") ?rb:(opt "rb") ?ccs:(opt "ccs") ~ic ()) )
      | "mosss" ->
          ( name,
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
        | (line, fields) :: rest -> (
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
                scan (Some (l0, name, ports, (line, fields) :: body)) rest
            | _, None ->
                toplevel := (line, fields) :: !toplevel;
                scan None rest)
      in
      scan None cards;
      let toplevel = List.rev !toplevel in
      let find_model line name =
        match Hashtbl.find_opt models name with
        | Some m -> m
        | None -> fail line "unknown model %s" name
      in
      let ended = ref false in
      (* [translate] maps node names into the current instantiation scope;
         [rename] prefixes element names.  [depth] guards subckt recursion. *)
      let rec process_card ~depth ~translate ~rename (line, fields) =
        if not !ended then begin
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

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  parse_string text
