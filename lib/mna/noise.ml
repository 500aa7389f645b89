module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist

type contribution = { element : string; output_density : float }

type point = {
  freq_hz : float;
  output_density : float;
  input_density : float;
  contributions : contribution list;
}

(* Boltzmann's constant times the 300 K the analysis assumes. *)
let kt = 1.380649e-23 *. 300.

(* Noise current spectral density of an element, A^2/Hz, between its output
   terminals; None for noiseless elements. *)
let source_of (e : Element.t) =
  match e.Element.kind with
  | Element.Resistor { a; b; ohms } -> Some (a, b, 4. *. kt /. ohms)
  | Element.Conductance { a; b; siemens } ->
      if siemens > 0. then Some (a, b, 4. *. kt *. siemens) else None
  | Element.Vccs { p; m; gm; _ } ->
      (* Shot noise 2qI with I = gm * VT: 2 k T gm. *)
      Some (p, m, 2. *. kt *. Float.abs gm)
  | Element.Capacitor _ | Element.Inductor _ | Element.Vcvs _ | Element.Cccs _
  | Element.Ccvs _ | Element.Isrc _ | Element.Vsrc _ ->
      None

let at circuit ~input ~output ~freq_hz =
  let sol =
    Nodal.solve_at
      (Nodal.make circuit ~input ~output)
      { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz }
  in
  let w = sol.Nodal.adjoint in
  let contributions =
    List.filter_map
      (fun (e : Element.t) ->
        match source_of e with
        | None -> None
        | Some (a, b, density) ->
            (* Unit noise current from a to b through the source. *)
            let z = Complex.sub w.(b) w.(a) in
            Some
              {
                element = e.Element.name;
                output_density = density *. Complex.norm z *. Complex.norm z;
              })
      (Netlist.elements circuit)
    |> List.sort (fun (x : contribution) (y : contribution) ->
           Float.compare y.output_density x.output_density)
  in
  let output_density =
    List.fold_left (fun acc (c : contribution) -> acc +. c.output_density) 0. contributions
  in
  let h2 = Complex.norm sol.Nodal.transfer *. Complex.norm sol.Nodal.transfer in
  {
    freq_hz;
    output_density;
    input_density = (if h2 = 0. then infinity else output_density /. h2);
    contributions;
  }

let sweep circuit ~input ~output ~freqs =
  Array.map (fun f -> at circuit ~input ~output ~freq_hz:f) freqs

let integrate_rms points =
  let acc = ref 0. in
  for i = 0 to Array.length points - 2 do
    let a = points.(i) and b = points.(i + 1) in
    acc :=
      !acc
      +. ((a.output_density +. b.output_density) /. 2. *. (b.freq_hz -. a.freq_hz))
  done;
  Float.sqrt !acc
