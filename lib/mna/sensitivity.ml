module Netlist = Symref_circuit.Netlist
module Element = Symref_circuit.Element

type entry = {
  element : string;
  value : float;
  s : Complex.t;
  mag_db_per_percent : float;
  phase_deg_per_percent : float;
}

let perturbable (e : Element.t) =
  match e.Element.kind with
  | Element.Conductance _ | Element.Resistor _ | Element.Capacitor _
  | Element.Inductor _ | Element.Vccs _ | Element.Vcvs _ | Element.Cccs _
  | Element.Ccvs _ ->
      true
  | Element.Isrc _ | Element.Vsrc _ -> false

(* The relative perturbation of the central differences. *)
let rel_step = 1e-4

let entry_of (e : Element.t) sens =
  (* A +1% value change moves |H| by ~20/ln10 * Re S * 0.01 dB and the phase
     by ~Im S * 0.01 rad. *)
  let percent = 0.01 in
  {
    element = e.Element.name;
    value = Element.principal_value e;
    s = sens;
    mag_db_per_percent = 20. /. Float.log 10. *. sens.Complex.re *. percent;
    phase_deg_per_percent = sens.Complex.im *. percent *. 180. /. Float.pi;
  }

let by_magnitude entries =
  List.sort (fun a b -> Float.compare (Complex.norm b.s) (Complex.norm a.s)) entries

let at circuit ~input ~output ~freq_hz =
  let h_of c = Nodal.response c ~input ~output [| freq_hz |] in
  let h0 =
    match h_of circuit with
    | Some [| h |] when Complex.norm h > 0. -> h
    | Some _ | None -> invalid_arg "Sensitivity.at: H is zero or singular at this point"
  in
  List.filter_map
    (fun (e : Element.t) ->
      if not (perturbable e) then None
      else begin
        let name = e.Element.name in
        let up = Netlist.scale_element circuit name (1. +. rel_step) in
        let dn = Netlist.scale_element circuit name (1. -. rel_step) in
        match (h_of up, h_of dn) with
        | Some [| hp |], Some [| hm |] ->
            (* S = (x/H) dH/dx with dx = x * rel_step, central difference. *)
            let dh = Complex.sub hp hm in
            Some (entry_of e (Complex.div dh (Symref_numeric.Cx.scale (2. *. rel_step) h0)))
        | _ -> None
      end)
    (Netlist.elements circuit)
  |> by_magnitude

(* Adjoint method: dv_out/dA_jk = -w_j v_k, with v and w the forward and
   adjoint potentials of one factorisation; every element sensitivity is
   then a local product. *)
let adjoint_at circuit ~input ~output ~freq_hz =
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  let sol = Nodal.solve_at (Nodal.make circuit ~input ~output) s in
  let h = sol.Nodal.transfer and v = sol.Nodal.forward and w = sol.Nodal.adjoint in
  if Complex.norm h = 0. then invalid_arg "Sensitivity.adjoint_at: H is zero";
  let dh_dy (op, om) (cp, cm) =
    Complex.neg (Complex.mul (Complex.sub w.(op) w.(om)) (Complex.sub v.(cp) v.(cm)))
  in
  let normalised y out ctrl = Complex.div (Complex.mul y (dh_dy out ctrl)) h in
  List.filter_map
    (fun (e : Element.t) ->
      Option.map (entry_of e)
        (match e.Element.kind with
        | Element.Conductance { a; b; siemens } ->
            Some (normalised { re = siemens; im = 0. } (a, b) (a, b))
        | Element.Resistor { a; b; ohms } ->
            (* S_R = -S_(1/R): the chain rule through y = 1/R. *)
            Some (Complex.neg (normalised { re = 1. /. ohms; im = 0. } (a, b) (a, b)))
        | Element.Capacitor { a; b; farads } ->
            Some (normalised (Complex.mul s { re = farads; im = 0. }) (a, b) (a, b))
        | Element.Vccs { p; m; cp; cm; gm } ->
            Some (normalised { re = gm; im = 0. } (p, m) (cp, cm))
        | Element.Isrc _ | Element.Inductor _ | Element.Vcvs _ | Element.Cccs _
        | Element.Ccvs _ | Element.Vsrc _ ->
            None))
    (Netlist.elements circuit)
  |> by_magnitude

let worst_case circuit ~input ~output ~freqs =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun f ->
      match at circuit ~input ~output ~freq_hz:f with
      | entries ->
          List.iter
            (fun e ->
              let m = Complex.norm e.s in
              match Hashtbl.find_opt tbl e.element with
              | Some old when old >= m -> ()
              | _ -> Hashtbl.replace tbl e.element m)
            entries
      | exception Invalid_argument _ -> ())
    freqs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
