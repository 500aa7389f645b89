module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist

type config = {
  samples : int;
  seed : int;
  tolerance : Element.t -> float option;
}

let default_tolerance (e : Element.t) =
  match e.Element.kind with
  | Element.Resistor _ | Element.Capacitor _ | Element.Conductance _
  | Element.Inductor _ ->
      Some 0.10
  | Element.Vccs _ | Element.Vcvs _ | Element.Cccs _ | Element.Ccvs _ -> Some 0.20
  | Element.Isrc _ | Element.Vsrc _ -> None

let default_config = { samples = 100; seed = 1; tolerance = default_tolerance }

type stat = {
  freq_hz : float;
  nominal_db : float;
  mean_db : float;
  std_db : float;
  min_db : float;
  max_db : float;
}

type lcg = { mutable state : int }

let next g =
  g.state <- ((g.state * 1103515245) + 12345) land 0x3FFFFFFF;
  float_of_int g.state /. float_of_int 0x40000000

(* One sampled circuit: every toleranced element scaled by a factor uniform
   in [1/(1+tol), 1+tol] (symmetric in log). *)
let sample config g circuit =
  List.fold_left
    (fun c (e : Element.t) ->
      match config.tolerance e with
      | None -> c
      | Some tol ->
          let span = Float.log (1. +. tol) in
          let factor = Float.exp (((2. *. next g) -. 1.) *. span) in
          Netlist.scale_element c e.Element.name factor)
    circuit (Netlist.elements circuit)

let responses ?(config = default_config) circuit ~input ~output ~freqs =
  let g = { state = (config.seed * 2654435761) land 0x3FFFFFFF } in
  (* Raises [Nodal.Unsupported] outside the nodal class: the nominal
     circuit reports it, a sample is skipped like a singular one. *)
  let h_of c = Nodal.response c ~input ~output freqs in
  let nominal =
    match h_of circuit with
    | Some h -> h
    | None -> invalid_arg "Monte_carlo: nominal circuit is singular"
  in
  let samples = ref [] in
  for _ = 1 to config.samples do
    match h_of (sample config g circuit) with
    | Some h -> samples := h :: !samples
    | None | (exception Nodal.Unsupported _) -> ()
  done;
  (nominal, List.rev !samples)

let gain_spread ?config circuit ~input ~output ~freqs =
  let nominal, samples = responses ?config circuit ~input ~output ~freqs in
  let db z = 20. *. Float.log10 (Complex.norm z +. 1e-300) in
  Array.mapi
    (fun i f ->
      let values = List.map (fun h -> db (Array.get h i)) samples in
      let n = float_of_int (List.length values) in
      if n = 0. then
        {
          freq_hz = f;
          nominal_db = db nominal.(i);
          mean_db = Float.nan;
          std_db = Float.nan;
          min_db = Float.nan;
          max_db = Float.nan;
        }
      else begin
        let mean = List.fold_left ( +. ) 0. values /. n in
        let var =
          List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values /. n
        in
        let lo, hi = Symref_numeric.Stats.min_max values in
        {
          freq_hz = f;
          nominal_db = db nominal.(i);
          mean_db = mean;
          std_db = Float.sqrt var;
          min_db = lo;
          max_db = hi;
        }
      end)
    freqs

let yield_ ?(config = default_config) circuit ~input ~output ~accept ~freqs =
  let _, samples = responses ~config circuit ~input ~output ~freqs in
  let accepted = List.length (List.filter accept samples) in
  float_of_int accepted /. float_of_int config.samples
