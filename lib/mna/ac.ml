module Sparse = Symref_linalg.Sparse
module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist

exception Unsupported of string

type t = {
  circuit : Netlist.t;
  n_nodes : int;
  dim : int;
  aux : (string, int) Hashtbl.t; (* element name -> auxiliary row index *)
}

let needs_aux (e : Element.t) =
  match e.Element.kind with
  | Element.Vsrc _ | Element.Vcvs _ | Element.Ccvs _ | Element.Inductor _ -> true
  | Element.Conductance _ | Element.Resistor _ | Element.Capacitor _
  | Element.Vccs _ | Element.Cccs _ | Element.Isrc _ ->
      false

let make circuit =
  let n_nodes = Netlist.node_count circuit in
  if n_nodes = 0 then raise (Unsupported "empty circuit");
  let aux = Hashtbl.create 8 in
  let next = ref n_nodes in
  List.iter
    (fun (e : Element.t) ->
      if needs_aux e then begin
        Hashtbl.replace aux e.Element.name !next;
        incr next
      end)
    (Netlist.elements circuit);
  { circuit; n_nodes; dim = !next; aux }

let dimension t = t.dim

(* Matrix rows/cols: node k (1-based) -> k-1; auxiliary rows as assigned. *)
let solve t ~omega =
  let s = { Complex.re = 0.; im = omega } in
  let b = Sparse.create t.dim in
  let rhs = Array.make t.dim Complex.zero in
  let idx node = node - 1 in
  let entry r c v = if r >= 0 && c >= 0 then Sparse.add b r c v in
  let row_ok node = node > 0 in
  let add_node r c v = if row_ok r && row_ok c then Sparse.add b (idx r) (idx c) v in
  let admittance a b' y =
    add_node a a y;
    add_node b' b' y;
    let ny = Complex.neg y in
    add_node a b' ny;
    add_node b' a ny
  in
  let inject n v = if row_ok n then rhs.(idx n) <- Complex.add rhs.(idx n) v in
  let aux_of name = Hashtbl.find t.aux name in
  List.iter
    (fun (e : Element.t) ->
      match e.Element.kind with
      | Element.Conductance { a; b; siemens } -> admittance a b { re = siemens; im = 0. }
      | Element.Resistor { a; b; ohms } -> admittance a b { re = 1. /. ohms; im = 0. }
      | Element.Capacitor { a; b; farads } ->
          admittance a b (Complex.mul s { re = farads; im = 0. })
      | Element.Vccs { p; m; cp; cm; gm } ->
          let y = { Complex.re = gm; im = 0. } in
          let ny = Complex.neg y in
          add_node p cp y;
          add_node p cm ny;
          add_node m cp ny;
          add_node m cm y
      | Element.Isrc { a; b; amps } ->
          inject a { re = -.amps; im = 0. };
          inject b { re = amps; im = 0. }
      | Element.Vsrc { p; m; volts } ->
          let k = aux_of e.Element.name in
          (* Branch current i flows p -> m through the source. *)
          if row_ok p then begin
            entry (idx p) k Complex.one;
            entry k (idx p) Complex.one
          end;
          if row_ok m then begin
            entry (idx m) k { re = -1.; im = 0. };
            entry k (idx m) { re = -1.; im = 0. }
          end;
          rhs.(k) <- { re = volts; im = 0. }
      | Element.Vcvs { p; m; cp; cm; gain } ->
          let k = aux_of e.Element.name in
          if row_ok p then begin
            entry (idx p) k Complex.one;
            entry k (idx p) Complex.one
          end;
          if row_ok m then begin
            entry (idx m) k { re = -1.; im = 0. };
            entry k (idx m) { re = -1.; im = 0. }
          end;
          if row_ok cp then entry k (idx cp) { re = -.gain; im = 0. };
          if row_ok cm then entry k (idx cm) { re = gain; im = 0. }
      | Element.Cccs { p; m; vname; gain } ->
          let kv = aux_of vname in
          if row_ok p then entry (idx p) kv { re = gain; im = 0. };
          if row_ok m then entry (idx m) kv { re = -.gain; im = 0. }
      | Element.Ccvs { p; m; vname; ohms } ->
          let k = aux_of e.Element.name and kv = aux_of vname in
          if row_ok p then begin
            entry (idx p) k Complex.one;
            entry k (idx p) Complex.one
          end;
          if row_ok m then begin
            entry (idx m) k { re = -1.; im = 0. };
            entry k (idx m) { re = -1.; im = 0. }
          end;
          entry k kv { re = -.ohms; im = 0. }
      | Element.Inductor { a; b = b'; henries } ->
          let k = aux_of e.Element.name in
          if row_ok a then begin
            entry (idx a) k Complex.one;
            entry k (idx a) Complex.one
          end;
          if row_ok b' then begin
            entry (idx b') k { re = -1.; im = 0. };
            entry k (idx b') { re = -1.; im = 0. }
          end;
          entry k k (Complex.neg (Complex.mul s { re = henries; im = 0. })))
    (Netlist.elements t.circuit);
  let x = Sparse.solve (Sparse.factor b) rhs in
  Array.init (t.n_nodes + 1) (fun i -> if i = 0 then Complex.zero else x.(i - 1))

let node_id_exn circuit name =
  match Netlist.node_id circuit name with
  | Some id -> id
  | None -> raise (Unsupported (Printf.sprintf "unknown node %s" name))

let transfer circuit ~out_p ?(out_m = "0") freqs =
  let t = make circuit in
  let p = node_id_exn circuit out_p and m = node_id_exn circuit out_m in
  Array.map
    (fun f ->
      let v = solve t ~omega:(2. *. Float.pi *. f) in
      Complex.sub v.(p) v.(m))
    freqs

type bode_point = { freq_hz : float; mag_db : float; phase_deg : float }

let unwrap_phase_deg ph =
  let out = Array.copy ph in
  let offset = ref 0. in
  for i = 1 to Array.length ph - 1 do
    let d = ph.(i) -. ph.(i - 1) in
    if d > 180. then offset := !offset -. 360.
    else if d < -180. then offset := !offset +. 360.;
    out.(i) <- ph.(i) +. !offset
  done;
  out

let bode circuit ~out_p ?out_m freqs =
  let h = transfer circuit ~out_p ?out_m freqs in
  let raw_phase =
    Array.map (fun z -> Complex.arg z *. 180. /. Float.pi) h
  in
  let phase = unwrap_phase_deg raw_phase in
  Array.mapi
    (fun i z ->
      {
        freq_hz = freqs.(i);
        mag_db = 20. *. Float.log10 (Complex.norm z);
        phase_deg = phase.(i);
      })
    h
