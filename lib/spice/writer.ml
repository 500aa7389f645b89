module Netlist = Symref_circuit.Netlist
module Element = Symref_circuit.Element

(* Card names are type-dispatched on their first letter, so every emitted
   name gets the canonical prefix; pure conductances (no SPICE card; may be
   negative) are written as the electrically identical self-controlled VCCS
   [G p m p m value].  [value] prints every element value.  Each card is
   written field by field into the one buffer. *)
let render ~value circuit =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Netlist.title circuit);
  Buffer.add_char buf '\n';
  let lower s =
    for i = 0 to String.length s - 1 do
      Buffer.add_char buf (Char.lowercase_ascii (String.unsafe_get s i))
    done
  in
  let card letter (e : Element.t) =
    Buffer.add_char buf letter;
    Buffer.add_char buf '_';
    lower e.Element.name
  in
  let node n =
    Buffer.add_char buf ' ';
    Buffer.add_string buf (Netlist.node_name circuit n)
  in
  let last v =
    Buffer.add_char buf ' ';
    Buffer.add_string buf (value v);
    Buffer.add_char buf '\n'
  in
  let control vname =
    Buffer.add_string buf " v_";
    lower vname
  in
  List.iter
    (fun (e : Element.t) ->
      match e.Element.kind with
      | Element.Resistor { a; b; ohms } ->
          card 'r' e; node a; node b; last ohms
      | Element.Conductance { a; b; siemens } ->
          card 'g' e; node a; node b; node a; node b; last siemens
      | Element.Capacitor { a; b; farads } ->
          card 'c' e; node a; node b; last farads
      | Element.Inductor { a; b; henries } ->
          card 'l' e; node a; node b; last henries
      | Element.Vccs { p; m; cp; cm; gm } ->
          card 'g' e; node p; node m; node cp; node cm; last gm
      | Element.Vcvs { p; m; cp; cm; gain } ->
          card 'e' e; node p; node m; node cp; node cm; last gain
      | Element.Cccs { p; m; vname; gain } ->
          card 'f' e; node p; node m; control vname; last gain
      | Element.Ccvs { p; m; vname; ohms } ->
          card 'h' e; node p; node m; control vname; last ohms
      | Element.Isrc { a; b; amps } ->
          card 'i' e; node a; node b; Buffer.add_string buf " ac"; last amps
      | Element.Vsrc { p; m; volts } ->
          card 'v' e; node p; node m; Buffer.add_string buf " ac"; last volts)
    (Netlist.elements circuit);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

(* Printf's [%h] is this runtime primitive with the sign flag '-' and a
   negative precision ("as many digits as needed"); calling it directly
   skips the format interpreter and gives the same text. *)
external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

let to_string = render ~value:Units.format_si
let canonical = render ~value:(fun v -> hexstring_of_float v (-1) '-')

let to_file path circuit =
  let oc = open_out path in
  output_string oc (to_string circuit);
  close_out oc
