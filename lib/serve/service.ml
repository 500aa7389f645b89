(* Job execution for the serve subsystem.

   A worker runs [run_job] from start to finish: read, parse, canonicalise,
   resolve the drive and the probe, look the canonical key up in the cache,
   compute on a miss, store the rendered payload.  Every expected failure is
   mapped to a structured reply here, so neither the daemon loop nor the
   batch sweep ever sees an exception from a job. *)

module N = Symref_circuit.Netlist
module Element = Symref_circuit.Element
module Transform = Symref_circuit.Transform
module Nodal = Symref_mna.Nodal
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Poles = Symref_core.Poles
module Sym = Symref_symbolic.Sym
module Nested = Symref_symbolic.Nested
module Sbg = Symref_symbolic.Sbg
module Pipeline = Symref_simplify.Pipeline
module Budget = Symref_simplify.Budget
module Certificate = Symref_simplify.Certificate
module Grid = Symref_numeric.Grid
module Ef = Symref_numeric.Extfloat
module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics
module Snapshot = Symref_obs.Snapshot
module Inject = Symref_fault.Inject

type config = {
  workers : int;
  queue : int;
  cache_bytes : int;
  default_timeout_ms : int option;
  disk_cache_dir : string option;
  backlog : int;
  socket_mode : int option;
}

let default_config =
  {
    workers = 0;
    queue = 64;
    cache_bytes = 64 * 1024 * 1024;
    default_timeout_ms = None;
    disk_cache_dir = None;
    backlog = 16;
    socket_mode = None;
  }

type t = {
  cfg : config;
  cache : Cache.t;
  disk : Disk_cache.t option;
  sched : Scheduler.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    cache = Cache.create ~max_bytes:config.cache_bytes ();
    disk = Option.map (fun dir -> Disk_cache.create ~dir) config.disk_cache_dir;
    sched = Scheduler.create ~queue:config.queue ~workers:config.workers ();
  }

exception Deadline_exceeded

let config t = t.cfg
let scheduler t = t.sched
let cache t = t.cache
let disk_cache t = t.disk

(* --- input/output resolution --- *)

let parse_input circuit s =
  let split_pair v =
    match String.split_on_char ',' v with
    | [ a; b ] -> (a, b)
    | _ -> Errors.bad_spec "input" "expected two comma-separated node names"
  in
  match String.index_opt s ':' with
  | None -> (
      match N.find_element circuit s with
      | Some _ -> Nodal.Vsrc_element s
      | None -> Errors.bad_spec "input" "no element named %s in the netlist" s)
  | Some i -> (
      let kind = String.sub s 0 i
      and v = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "diff" ->
          let p, m = split_pair v in
          Nodal.V_diff (p, m)
      | "node" -> Nodal.V_single v
      | "current" -> Nodal.I_single v
      | k -> Errors.bad_spec "input" "unknown input kind %s" k)

let parse_output s =
  match String.split_on_char ',' s with
  | [ a ] -> Nodal.Out_node a
  | [ a; b ] -> Nodal.Out_diff (a, b)
  | _ -> Errors.bad_spec "output" "output must be NODE or NODE,NODE"

(* Grounded voltage sources, each as (name, non-ground node, effective drive
   at that node) — the sign flips when the source hangs off ground by its
   positive terminal. *)
let grounded_vsrcs circuit =
  List.filter_map
    (fun (e : Element.t) ->
      match e.Element.kind with
      | Element.Vsrc { p; m; volts } when p = 0 && m <> 0 ->
          Some (e.Element.name, N.node_name circuit m, -.volts)
      | Element.Vsrc { p; m; volts } when m = 0 && p <> 0 ->
          Some (e.Element.name, N.node_name circuit p, volts)
      | _ -> None)
    (N.elements circuit)

let vsrc_count circuit =
  List.length
    (List.filter
       (fun (e : Element.t) ->
         match e.Element.kind with Element.Vsrc _ -> true | _ -> false)
       (N.elements circuit))

let auto_input circuit =
  let grounded = grounded_vsrcs circuit in
  match (grounded, vsrc_count circuit) with
  | [ (name, _, _) ], 1 ->
      (* The classic single-drive netlist: use the source itself. *)
      (circuit, Nodal.Vsrc_element name, name)
  | [ (n1, node1, v1); (n2, node2, v2) ], 2
    when v1 *. v2 < 0. && Float.abs (Float.abs v1 -. Float.abs v2) = 0. ->
      (* An antisymmetric source pair (the uA741 sample netlist): remove
         both and drive the pair differentially. *)
      let p, m = if v1 > 0. then (node1, node2) else (node2, node1) in
      let circuit = N.remove_element (N.remove_element circuit n1) n2 in
      (circuit, Nodal.V_diff (p, m), Printf.sprintf "diff:%s,%s" p m)
  | _, 0 -> (
      match
        List.find_opt (fun n -> N.node_id circuit n <> None) [ "in"; "vin" ]
      with
      | Some n -> (circuit, Nodal.V_single n, "node:" ^ n)
      | None ->
          Errors.bad_spec "input"
            "cannot auto-detect the input: no voltage source and no node \
             named in/vin (pass input explicitly)")
  | _ ->
      Errors.bad_spec "input"
        "cannot auto-detect the input: the voltage sources are not a single \
         grounded drive or an antisymmetric grounded pair (pass input \
         explicitly)"

let auto_output circuit =
  match
    List.find_opt (fun n -> N.node_id circuit n <> None) [ "out"; "vout"; "output" ]
  with
  | Some n -> (Nodal.Out_node n, n)
  | None ->
      let last = N.node_count circuit in
      if last = 0 then
        Errors.bad_spec "output" "cannot auto-detect the output: no nodes"
      else
        let n = N.node_name circuit last in
        (Nodal.Out_node n, n)

let resolve_io circuit ~input ~output =
  let circuit, input, input_desc =
    if input = "auto" then auto_input circuit
    else (circuit, parse_input circuit input, input)
  in
  let output, output_desc =
    match output with
    | Some s -> (parse_output s, s)
    | None -> auto_output circuit
  in
  (circuit, input, output, input_desc, output_desc)

(* --- cache keys --- *)

let cache_key ~canonical (job : Protocol.job) ~input_desc ~output_desc =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            canonical;
            Protocol.analysis_to_string job.Protocol.analysis;
            input_desc;
            output_desc;
            string_of_int job.Protocol.sigma;
            Printf.sprintf "%.17g" job.Protocol.r;
          ]))

(* --- payload builders --- *)

let str s = Json.Str s
let num x = Json.Num x
let inum i = Json.Num (float_of_int i)

(* Coefficients travel as extended-float strings ({!Ef.to_string}): a
   [%.5f] mantissa and a decimal exponent.  That reaches past a double's
   range and is bit-stable from run to run, but it keeps six significant
   digits whatever sigma the job asked for: the wire rounds. *)
let coeff_array (r : Adaptive.result) =
  Json.Arr (Array.to_list (Array.map (fun v -> str (Ef.to_string v)) r.Adaptive.coeffs))

let side_fields (r : Adaptive.result) =
  [
    ("order", inum r.Adaptive.effective_order);
    ("passes", inum r.Adaptive.passes);
    ("evaluations", inum r.Adaptive.evaluations);
    ("converged", Json.Bool r.Adaptive.converged);
  ]

(* The per-job health verdict (see {!Reference.health}): convergence, an
   independent residual probe, and the recovery counters.  Costs a handful
   of extra LU evaluations per computed (not cached) job, under the job's
   deadline [check] like the generation's. *)
let health_json ~check (t : Reference.t) =
  let h = Reference.health ~check t in
  Json.Obj
    [
      ("converged", Json.Bool h.Reference.converged);
      ("verified", Json.Bool h.Reference.verified);
      ("max_residual", num h.Reference.max_residual);
      ("probes", inum h.Reference.probes);
      ("singular_retries", inum h.Reference.singular_retries);
      ("nonfinite_retries", inum h.Reference.nonfinite_retries);
      ("retry_giveups", inum h.Reference.retry_giveups);
      ("healthy", Json.Bool h.Reference.healthy);
    ]

let coeffs_fields (t : Reference.t) =
  [
    ("num", coeff_array t.Reference.num);
    ("den", coeff_array t.Reference.den);
    ("num_info", Json.Obj (side_fields t.Reference.num));
    ("den_info", Json.Obj (side_fields t.Reference.den));
    ("dc_gain", num (Reference.dc_gain t));
  ]

let pass_reports (r : Adaptive.result) =
  Json.Arr
    (List.map
       (fun (b : Adaptive.band_report) ->
         Json.Obj
           [
             ("pass", inum b.Adaptive.pass);
             ("points", inum b.Adaptive.points);
             ("evaluations", inum b.Adaptive.evaluations);
             ("fresh", inum b.Adaptive.fresh);
           ])
       r.Adaptive.reports)

let payload ~check (job : Protocol.job) ~input_desc ~output_desc (t : Reference.t) =
  let common =
    [
      ("analysis", str (Protocol.analysis_to_string job.Protocol.analysis));
      ("input", str input_desc);
      ("output", str output_desc);
      ("health", health_json ~check t);
    ]
  in
  match job.Protocol.analysis with
  | Protocol.Simplify _ ->
      (* Dispatched to [simplify_payload] before any reference exists. *)
      invalid_arg "Service.payload: simplify does not use the reference payload"
  | Protocol.Reference -> Json.Obj (common @ coeffs_fields t)
  | Protocol.Adaptive ->
      Json.Obj
        (common @ coeffs_fields t
        @ [
            ("num_reports", pass_reports t.Reference.num);
            ("den_reports", pass_reports t.Reference.den);
          ])
  | Protocol.Bode { from_hz; to_hz; per_decade } ->
      let freqs = Grid.decades ~start:from_hz ~stop:to_hz ~per_decade in
      let points =
        Array.to_list
          (Array.map
             (fun (p : Reference.bode_point) ->
               Json.Obj
                 [
                   ("freq_hz", num p.Reference.freq_hz);
                   ("mag_db", num p.Reference.mag_db);
                   ("phase_deg", num p.Reference.phase_deg);
                 ])
             (Reference.bode t freqs))
      in
      Json.Obj (common @ [ ("points", Json.Arr points) ])
  | Protocol.Poles ->
      let a = Poles.analyse t in
      let cplx z = Json.Arr [ num z.Complex.re; num z.Complex.im ] in
      let roots zs = Json.Arr (Array.to_list (Array.map cplx zs)) in
      Json.Obj
        (common
        @ [
            ("poles", roots a.Poles.poles);
            ("zeros", roots a.Poles.zeros);
            ("stable", Json.Bool a.Poles.stable);
            ( "resonances",
              Json.Arr
                (List.map
                   (fun (r : Poles.resonance) ->
                     Json.Obj
                       [ ("freq_hz", num r.Poles.freq_hz); ("q", num r.Poles.q) ])
                   a.Poles.resonances) );
          ])

(* The simplify payload: simplified expressions (flat and nested forms),
   per-stage removal logs and the error certificate.  Rendered from the
   same deterministic printers as everything else, so the stored string
   replays bit-identically from either cache layer. *)
let simplify_payload ~check (job : Protocol.job) ~input_desc ~output_desc
    (r : Pipeline.result) =
  let removal (rm : Sbg.removal) =
    Json.Obj
      [
        ("element", str rm.Sbg.element);
        ( "action",
          str (match rm.Sbg.action with Sbg.Opened -> "opened" | Sbg.Shorted -> "shorted") );
        ("delta_db", num rm.Sbg.delta_db);
        ("delta_deg", num rm.Sbg.delta_deg);
        ("error_db", num rm.Sbg.error_db);
        ("error_deg", num rm.Sbg.error_deg);
      ]
  in
  let sdg_side (rep : Symref_simplify.Pipeline.result) get =
    let s : Symref_symbolic.Sdg.report = get rep in
    Json.Obj
      [
        ("total_terms", inum s.Symref_symbolic.Sdg.total_terms);
        ("kept_terms", inum s.Symref_symbolic.Sdg.kept_terms);
      ]
  in
  Json.Obj
    [
      ("analysis", str (Protocol.analysis_to_string job.Protocol.analysis));
      ("input", str input_desc);
      ("output", str output_desc);
      ("health", health_json ~check r.Pipeline.reference);
      ( "elements",
        Json.Obj
          [
            ("before", inum r.Pipeline.elements_before);
            ("after", inum r.Pipeline.elements_after);
          ] );
      ("dim", inum r.Pipeline.dim);
      ( "exact_terms",
        Json.Obj
          [
            ("num", inum r.Pipeline.exact_num_terms);
            ("den", inum r.Pipeline.exact_den_terms);
          ] );
      ( "terms",
        Json.Obj
          [ ("num", inum r.Pipeline.num_terms); ("den", inum r.Pipeline.den_terms) ]
      );
      ("num", str (Sym.to_string r.Pipeline.num));
      ("den", str (Sym.to_string r.Pipeline.den));
      ("num_nested", str (Nested.to_string (Nested.nest r.Pipeline.num)));
      ("den_nested", str (Nested.to_string (Nested.nest r.Pipeline.den)));
      ( "sbg",
        Json.Obj
          [
            ("removals", Json.Arr (List.map removal r.Pipeline.sbg.Sbg.removals));
            ("error_db", num r.Pipeline.sbg.Sbg.error_db);
            ("error_deg", num r.Pipeline.sbg.Sbg.error_deg);
            ("candidates", inum r.Pipeline.sbg.Sbg.candidates);
            ("trials", inum r.Pipeline.sbg.Sbg.trials);
          ] );
      ( "sdg",
        Json.Obj
          [
            ("num", sdg_side r (fun x -> x.Pipeline.sdg_num));
            ("den", sdg_side r (fun x -> x.Pipeline.sdg_den));
          ] );
      ( "sag",
        Json.Obj
          [
            ("total_terms", inum r.Pipeline.sag.Symref_symbolic.Sag.total_terms);
            ("kept_terms", inum r.Pipeline.sag.Symref_symbolic.Sag.kept_terms);
            ("dropped", inum r.Pipeline.sag.Symref_symbolic.Sag.dropped);
            ("max_error", num r.Pipeline.sag.Symref_symbolic.Sag.max_error);
          ] );
      ("attempts", inum r.Pipeline.attempts);
      ("fallback", Json.Bool r.Pipeline.fallback);
      ("certificate", Certificate.to_json r.Pipeline.certificate);
    ]

(* --- job execution --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let run_job t ?deadline (job : Protocol.job) =
  let id = job.Protocol.id in
  let check () =
    match deadline with
    | Some d when Unix.gettimeofday () >= d -> raise Deadline_exceeded
    | _ -> ()
  in
  let failed kind message =
    Metrics.incr Metrics.serve_jobs_failed;
    Protocol.error ~id ~kind message
  in
  try
    (* Before any work: a refused sigma reads no netlist and caches
       nothing. *)
    Adaptive.check_sigma job.Protocol.sigma;
    check ();
    let source =
      match job.Protocol.netlist with
      | `Text s -> s
      | `Path p -> read_file p
    in
    let circuit = Parser.parse_string source in
    let circuit = Transform.inductors_to_gyrators circuit in
    let circuit, input, output, input_desc, output_desc =
      resolve_io circuit ~input:job.Protocol.input ~output:job.Protocol.output
    in
    let canonical = Writer.canonical circuit in
    let key = cache_key ~canonical job ~input_desc ~output_desc in
    match Cache.find t.cache ~key with
    | Some stored ->
        Metrics.incr Metrics.serve_jobs_completed;
        Protocol.ok ~id ~cached:true (Json.parse stored)
    | None -> (
        (* Layered lookup: the persistent on-disk cache sits under the LRU,
           so a hit survives restarts and is shared across the fleet's
           processes.  The stored string is replayed verbatim either way —
           bit-identical to the reply that first produced it. *)
        let disk_hit =
          match t.disk with
          | None -> None
          | Some d -> Disk_cache.find d ~key
        in
        match disk_hit with
        | Some stored ->
            Cache.add t.cache ~key stored;
            Metrics.incr Metrics.serve_jobs_completed;
            Protocol.ok ~id ~cached:true (Json.parse stored)
        | None ->
            let body =
              match job.Protocol.analysis with
              | Protocol.Simplify
                  { budget_db; budget_deg; from_hz; to_hz; per_decade } ->
                  (* The pipeline generates its own references (full and
                     pruned circuit) and verifies over the request's grid. *)
                  let freqs = Grid.decades ~start:from_hz ~stop:to_hz ~per_decade in
                  let budget = Budget.v ~db:budget_db ~deg:budget_deg () in
                  let config =
                    {
                      Pipeline.default_config with
                      Pipeline.sigma = job.Protocol.sigma;
                      r = job.Protocol.r;
                    }
                  in
                  let result =
                    Pipeline.run ~config ~check circuit ~input ~output ~budget
                      ~freqs
                  in
                  simplify_payload ~check job ~input_desc ~output_desc result
              | _ ->
                  let config =
                    { Adaptive.default_config with Adaptive.sigma = job.Protocol.sigma; r = job.Protocol.r }
                  in
                  let reference = Reference.generate ~config ~check circuit ~input ~output in
                  payload ~check job ~input_desc ~output_desc reference
            in
            let rendered = Json.to_string body in
            Cache.add t.cache ~key rendered;
            Option.iter (fun d -> Disk_cache.store d ~key rendered) t.disk;
            Metrics.incr Metrics.serve_jobs_completed;
            Protocol.ok ~id body)
  with
  | Deadline_exceeded ->
      Metrics.incr Metrics.serve_jobs_timeout;
      Protocol.error ~id ~status:Protocol.Timeout ~kind:"timeout"
        "job exceeded its wall-clock budget"
  | Parser.Parse_error { line; message } ->
      let where =
        match job.Protocol.netlist with `Path p -> p | `Text _ -> "<inline>"
      in
      failed "parse" (Printf.sprintf "%s:%d: %s" where line message)
  | Nodal.Unsupported m -> failed "unsupported" ("unsupported circuit: " ^ m)
  | Pipeline.Symbolic_limit { dim; limit } ->
      failed "symbolic_limit"
        (Printf.sprintf
           "pruned circuit dimension %d exceeds the symbolic limit %d; \
            simplify needs a circuit (after pruning) of dimension <= %d"
           dim limit limit)
  | Errors.Error e -> failed (Errors.kind e) (Errors.message e)
  | Inject.Injected m -> failed "injected" m
  | Failure m -> failed "invalid" m
  | Invalid_argument m -> failed "invalid" m
  | Sys_error m -> failed "io" m
  | e -> failed "internal" (Printexc.to_string e)

let submit t (job : Protocol.job) =
  let timeout_ms =
    match job.Protocol.timeout_ms with
    | Some _ as s -> s
    | None -> t.cfg.default_timeout_ms
  in
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.)) timeout_ms
  in
  match Scheduler.submit ?deadline t.sched (fun () -> run_job t ?deadline job) with
  | Scheduler.Admitted ticket -> `Ticket ticket
  | Scheduler.Shed { retry_after_ms } ->
      `Rejected
        (Protocol.overloaded ~id:job.Protocol.id ~retry_after_ms
           "job shed by admission control, retry after the hint")
  | Scheduler.Stopped ->
      `Rejected
        (Protocol.error ~id:job.Protocol.id ~status:Protocol.Busy ~kind:"busy"
           "daemon is shutting down, retry elsewhere")

let stats_json t =
  Json.Obj
    ([
       ("version", str Version.version);
       ("cache", Cache.stats_json t.cache);
     ]
    @ (match t.disk with
      | Some d -> [ ("disk_cache", Disk_cache.stats_json d) ]
      | None -> [])
    @ [
      ( "scheduler",
        Json.Obj
          [
            ("pending", inum (Scheduler.pending t.sched));
            ("queued", inum (Scheduler.queued t.sched));
            ("workers", inum (Scheduler.workers t.sched));
            ("queue_capacity", inum (Scheduler.queue_capacity t.sched));
            ("retry_after_ms", num (Scheduler.retry_after_estimate t.sched));
          ] );
      ("counters", Snapshot.to_json (Snapshot.capture ()));
    ])

let drain t = Scheduler.drain t.sched
let shutdown t = Scheduler.shutdown t.sched
