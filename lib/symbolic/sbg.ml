module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist
module Nodal = Symref_mna.Nodal
module Deviation = Symref_core.Deviation

type action = Opened | Shorted

type removal = {
  element : string;
  action : action;
  delta_db : float;
  delta_deg : float;
  error_db : float;
  error_deg : float;
}

type config = {
  tolerance_db : float;
  tolerance_deg : float;
  removable : Element.t -> bool;
  shortable : Element.t -> bool;
}

let default_removable (e : Element.t) =
  match e.Element.kind with
  | Element.Conductance _ | Element.Resistor _ | Element.Capacitor _ -> true
  | Element.Vccs _ | Element.Isrc _ | Element.Inductor _ | Element.Vcvs _
  | Element.Cccs _ | Element.Ccvs _ | Element.Vsrc _ ->
      false

let default_shortable (e : Element.t) =
  match e.Element.kind with
  | Element.Conductance _ | Element.Resistor _ -> true
  | _ -> false

let default_config =
  {
    tolerance_db = 0.5;
    tolerance_deg = 5.;
    removable = default_removable;
    shortable = (fun _ -> false);
  }

type outcome = {
  pruned : Netlist.t;
  removed : string list;
  removals : removal list;
  error_db : float;
  error_deg : float;
  candidates : int;
  trials : int;
}

(* Build the candidate circuit for a move; None when the move is structurally
   impossible (element already gone, a short collapsing a constraint element
   or a controlled source's reference, the compaction dropping the circuit's
   input/output node). *)
let apply circuit (name, act) =
  match
    match act with
    | Opened -> Netlist.compact (Netlist.remove_element circuit name)
    | Shorted -> Netlist.short_element circuit name
  with
  | candidate -> Some candidate
  | exception (Invalid_argument _ | Not_found) -> None

let prune ?(config = default_config) circuit ~input ~output ~freqs =
  (* [Nodal.response] raises [Nodal.Unsupported] outside the nodal class, so
     a bad input or output on the full circuit is reported as such. *)
  let response c = Nodal.response c ~input ~output freqs in
  let reference =
    match response circuit with
    | Some h -> h
    | None -> invalid_arg "Sbg.prune: the full circuit itself is singular"
  in
  let moves =
    List.concat_map
      (fun (e : Element.t) ->
        (if config.removable e then [ (e.Element.name, Opened) ] else [])
        @ if config.shortable e then [ (e.Element.name, Shorted) ] else [])
      (Netlist.elements circuit)
  in
  let trials = ref 0 in
  (* Cheap impact estimate: deviation when the move is applied alone. *)
  let impact move =
    incr trials;
    match apply circuit move with
    | None -> infinity
    | Some candidate -> (
        (* A candidate that leaves the nodal class is rejected like a
           singular one. *)
        match response candidate with
        | None | (exception Nodal.Unsupported _) -> infinity
        | Some h ->
            let ddb, ddeg = Deviation.worst ~reference h in
            (ddb /. config.tolerance_db) +. (ddeg /. config.tolerance_deg))
  in
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> Float.compare a b)
      (List.map (fun m -> (m, impact m)) moves)
  in
  let current = ref circuit and removals = ref [] in
  let err_db = ref 0. and err_deg = ref 0. in
  List.iter
    (fun (((name, act) as move), est) ->
      (* An element can be both an open and a short candidate; whichever
         move lands first consumes it. *)
      if Float.is_finite est && Netlist.find_element !current name <> None then begin
        incr trials;
        match apply !current move with
        | None -> ()
        | Some candidate -> (
            match response candidate with
            | None | (exception Nodal.Unsupported _) -> ()
            | Some h ->
                let ddb, ddeg = Deviation.worst ~reference h in
                if ddb <= config.tolerance_db && ddeg <= config.tolerance_deg
                then begin
                  removals :=
                    {
                      element = name;
                      action = act;
                      delta_db = Float.max 0. (ddb -. !err_db);
                      delta_deg = Float.max 0. (ddeg -. !err_deg);
                      error_db = ddb;
                      error_deg = ddeg;
                    }
                    :: !removals;
                  current := candidate;
                  err_db := ddb;
                  err_deg := ddeg
                end)
      end)
    ranked;
  let removals = List.rev !removals in
  {
    pruned = !current;
    removed = List.map (fun r -> r.element) removals;
    removals;
    error_db = !err_db;
    error_deg = !err_deg;
    candidates = List.length moves;
    trials = !trials;
  }
