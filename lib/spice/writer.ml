module Netlist = Symref_circuit.Netlist
module Element = Symref_circuit.Element

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

let to_string = render ~value:Units.format_si
let canonical = render ~value:(Printf.sprintf "%h")

let to_file path circuit =
  let oc = open_out path in
  output_string oc (to_string circuit);
  close_out oc
