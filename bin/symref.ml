(* symref: numerical reference generation for symbolic analysis of analog
   circuits (Garcia-Vargas et al., DATE 1997).

   Subcommands: info, coeffs, doctor, bode, ac, sbg, simplify, poles,
   sensitivity, margins, noise, mc, dot, tables, serve, submit, batch,
   router, fleet. *)

module N = Symref_circuit.Netlist
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Parser = Symref_spice.Parser
module Reference = Symref_core.Reference
module Adaptive = Symref_core.Adaptive
module Report = Symref_core.Report
module Evaluator = Symref_core.Evaluator
module Naive = Symref_core.Naive
module Fixed_scale = Symref_core.Fixed_scale
module Sbg = Symref_symbolic.Sbg
module Sym = Symref_symbolic.Sym
module Nested = Symref_symbolic.Nested
module Budget = Symref_simplify.Budget
module Pipeline = Symref_simplify.Pipeline
module Certificate = Symref_simplify.Certificate
module Grid = Symref_numeric.Grid
module Ef = Symref_numeric.Extfloat
module Metrics = Symref_obs.Metrics
module Trace = Symref_obs.Trace
module Snapshot = Symref_obs.Snapshot
module Json = Symref_obs.Json
module Serve = Symref_serve
module Inject = Symref_fault.Inject
open Cmdliner

(* --- shared arguments --- *)

let netlist_arg =
  let doc = "SPICE-subset netlist file (first line is the title)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc)

let input_arg =
  let doc =
    "Input drive: the name of a grounded voltage source in the netlist \
     (e.g. $(b,v1)), or $(b,diff:P,M) for a differential +-1/2 V drive, or \
     $(b,node:P) for a unit drive at node P, or $(b,current:P) for a unit \
     current injection."
  in
  Arg.(value & opt string "v1" & info [ "i"; "input" ] ~docv:"INPUT" ~doc)

let output_arg =
  let doc = "Output: node name, or $(b,P,M) for a differential output." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let sigma_arg =
  let doc = "Significant digits for the validity criterion (eq. 12)." in
  Arg.(value & opt int 6 & info [ "sigma" ] ~docv:"DIGITS" ~doc)

let r_arg =
  let doc = "Band-placement tuning factor of eq. 14." in
  Arg.(value & opt float 1.0 & info [ "r" ] ~doc)

let no_reduce_arg =
  let doc = "Disable the problem reduction of eq. 17." in
  Arg.(value & flag & info [ "no-reduce" ] ~doc)

let no_conj_arg =
  let doc = "Disable the conjugate-symmetry optimisation (full-circle LU)." in
  Arg.(value & flag & info [ "no-conjugate-symmetry" ] ~doc)

let from_arg =
  Arg.(value & opt float 1. & info [ "from" ] ~docv:"HZ" ~doc:"Sweep start frequency.")

let to_arg =
  Arg.(value & opt float 1e8 & info [ "to" ] ~docv:"HZ" ~doc:"Sweep stop frequency.")

let per_decade_arg =
  Arg.(value & opt int 4 & info [ "per-decade" ] ~doc:"Sweep points per decade.")

(* The serve library owns the input/output spec syntax, so a CLI run and a
   daemon job interpret the same strings identically. *)
let parse_input = Symref_serve.Service.parse_input
let parse_output = Symref_serve.Service.parse_output

let load file = Parser.parse_file file

(* Reference generation and the other nodal analyses need the nodal class;
   inductors enter it exactly through the gyrator-C transformation. *)
let load_nodal file =
  let c = load file in
  let t = Symref_circuit.Transform.inductors_to_gyrators c in
  if t != c then
    Printf.eprintf "note: inductors replaced by gyrator-C equivalents\n";
  t

(* --- observability: --stats / --trace, shared by every subcommand --- *)

type obs = { stats : bool; trace : string option }

let obs_term =
  let stats =
    let doc =
      "Collect pipeline counters (LU factorisations, memo hits, adaptive \
       passes, ...) and print the table to stdout after the command."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let trace =
    let doc =
      "Record spans (adaptive passes, interpolation batches, factorisations) \
       and write Chrome trace_event JSON to $(docv); open it in Perfetto or \
       chrome://tracing."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  Term.(const (fun stats trace -> { stats; trace }) $ stats $ trace)

(* Run a subcommand body with observability armed, turning the pipeline's
   exceptions into one-line diagnostics (with the netlist file, and the line
   for parse errors) on stderr.  Counters/trace are flushed even when the
   body fails, so a crashing run still leaves its telemetry behind. *)
let wrap ?file obs f =
  if obs.stats then Metrics.enable ();
  (match obs.trace with Some path -> Trace.start ~file:path | None -> ());
  let flush_obs () =
    (match obs.trace with
    | Some path ->
        let n = Trace.event_count () in
        Trace.finish ();
        Printf.eprintf "trace: %d events written to %s\n" n path
    | None -> ());
    if obs.stats then print_string (Snapshot.to_table (Snapshot.capture ()))
  in
  let where = match file with Some f -> f ^ ": " | None -> "" in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s\n" m;
        flush_obs ();
        exit 1)
      fmt
  in
  (try f () with
  | Failure m | Invalid_argument m -> fail "error: %s%s" where m
  | Serve.Errors.Error e -> fail "error: %s%s" where (Serve.Errors.message e)
  | Inject.Injected m -> fail "error: %sinjected fault fired: %s" where m
  | Parser.Parse_error { line; message } -> (
      match file with
      | Some f -> fail "error: %s:%d: %s" f line message
      | None -> fail "error: line %d: %s" line message)
  | Nodal.Unsupported m | Ac.Unsupported m ->
      fail "error: %sunsupported circuit: %s" where m
  | Pipeline.Symbolic_limit { dim; limit } ->
      fail
        "error: %spruned circuit dimension %d exceeds the symbolic limit %d \
         (lib/symbolic/sdet.ml: max_dimension); simplify needs a circuit \
         that prunes to dimension <= %d"
        where dim limit limit);
  flush_obs ()

(* --- info --- *)

let info_cmd =
  let run file obs =
    wrap ~file obs (fun () ->
        let c = load file in
        Format.printf "%a@." N.pp_summary c;
        Printf.printf "nodal class (reference generation supported): %b\n"
          (N.is_nodal_class c
          || List.for_all
               (fun (e : Symref_circuit.Element.t) ->
                 Symref_circuit.Element.is_nodal_class e
                 ||
                 match e.Symref_circuit.Element.kind with
                 | Symref_circuit.Element.Vsrc _ -> true
                 | _ -> false)
               (N.elements c));
        Printf.printf "connected: %b\n" (N.is_connected c);
        List.iter
          (fun e -> print_endline ("  " ^ Symref_circuit.Element.describe e))
          (N.elements c))
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print a netlist summary and its element list.")
    Term.(const run $ netlist_arg $ obs_term)

(* --- coeffs --- *)

(* An option value the library refuses is a one-line error and exit 2,
   checked before anything is loaded or started. *)
let refuse_invalid check =
  match check () with
  | _ -> ()
  | exception Invalid_argument m ->
      Printf.eprintf "error: --%s\n" m;
      exit 2

let check_sigma sigma = refuse_invalid (fun () -> Adaptive.check_sigma sigma)

let config_of sigma r no_reduce no_conj =
  {
    Adaptive.default_config with
    Adaptive.sigma;
    r;
    reduce = not no_reduce;
    conj_symmetry = not no_conj;
  }

let coeffs_cmd =
  let run file input output sigma r no_reduce no_conj obs =
    check_sigma sigma;
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let config = config_of sigma r no_reduce no_conj in
        let t = Reference.generate ~config c ~input ~output in
        print_string (Report.reference_summary t);
        print_endline "numerator coefficients:";
        Array.iteri
          (fun i v -> Printf.printf "  n%-3d %s\n" i (Ef.to_string v))
          t.Reference.num.Adaptive.coeffs;
        print_endline "denominator coefficients:";
        Array.iteri
          (fun i v -> Printf.printf "  d%-3d %s\n" i (Ef.to_string v))
          t.Reference.den.Adaptive.coeffs;
        Printf.printf "DC gain: %g\n" (Reference.dc_gain t))
  in
  Cmd.v
    (Cmd.info "coeffs"
       ~doc:
         "Generate numerical references (network-function coefficients) with \
          the adaptive scaling algorithm.")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ sigma_arg $ r_arg
      $ no_reduce_arg $ no_conj_arg $ obs_term)

(* --- doctor --- *)

let stall_to_string = function
  | Adaptive.No_stall -> "none"
  | Adaptive.Stalled_above i ->
      Printf.sprintf "stalled tilting up from coefficient %d" i
  | Adaptive.Stalled_below i ->
      Printf.sprintf "stalled tilting down from coefficient %d" i
  | Adaptive.Stalled_gap (l, r) ->
      Printf.sprintf "stalled filling the gap between coefficients %d and %d" l r
  | Adaptive.Peak_lost i ->
      Printf.sprintf "lost the established peak at coefficient %d (corrupted state)" i

let doctor_cmd =
  let tolerance_arg =
    let doc = "Relative-residual tolerance for the verification probes." in
    Arg.(value & opt float 1e-4 & info [ "tolerance" ] ~docv:"TOL" ~doc)
  in
  let run file input output sigma r no_reduce no_conj tolerance obs =
    (* The exit status is decided inside [wrap] but applied after it, so the
       --stats/--trace telemetry still flushes on an unhealthy verdict. *)
    check_sigma sigma;
    let healthy = ref false in
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let config = config_of sigma r no_reduce no_conj in
        let t = Reference.generate ~config c ~input ~output in
        let h = Reference.health ~tolerance t in
        Printf.printf "health report for %s:\n" file;
        List.iter
          (fun (k, v) -> Printf.printf "  %-18s %s\n" k v)
          (Reference.health_to_strings h);
        let side name (r : Adaptive.result) =
          let d = r.Adaptive.diagnosis in
          if d.Adaptive.stalled <> Adaptive.No_stall then
            Printf.printf "  %s: %s\n" name (stall_to_string d.Adaptive.stalled);
          if d.Adaptive.dry_pass_total > 0 then
            Printf.printf "  %s: %d dry pass(es)\n" name d.Adaptive.dry_pass_total
        in
        side "numerator" t.Reference.num;
        side "denominator" t.Reference.den;
        healthy := h.Reference.healthy);
    if not !healthy then exit 1
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Generate references and print a health report: convergence of both \
          adaptive runs, an independent residual verification of every \
          established coefficient, and the singular-point recovery counters. \
          Exits non-zero when any check fails.")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ sigma_arg $ r_arg
      $ no_reduce_arg $ no_conj_arg $ tolerance_arg $ obs_term)

(* --- bode --- *)

let bode_cmd =
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render ASCII Bode plots (Fig. 2 style).")
  in
  let run file input output from_ to_ per_decade plot obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let t = Reference.generate c ~input ~output in
        let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
        let out_p, out_m =
          match output with
          | Nodal.Out_node p -> (p, None)
          | Nodal.Out_diff (p, m) -> (p, Some m)
        in
        let sim = Ac.bode c ~out_p ?out_m freqs in
        let interp = Reference.bode t freqs in
        if plot then
          print_string (Symref_core.Ascii_plot.bode_figure ~interpolated:interp ~simulator:sim)
        else print_string (Report.bode_table ~interpolated:interp ~simulator:sim);
        let dmag, dph = Reference.bode_vs_simulator t sim in
        Printf.printf "max deltas: %.4g dB, %.4g deg\n" dmag dph)
  in
  Cmd.v
    (Cmd.info "bode"
       ~doc:
         "Bode diagram from the interpolated coefficients, compared against \
          the direct AC simulation (Fig. 2).  The netlist's own sources drive \
          the AC side; --input drives the reference side.")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ from_arg $ to_arg
      $ per_decade_arg $ plot_arg $ obs_term)

(* --- ac --- *)

let ac_cmd =
  let run file output from_ to_ per_decade obs =
    wrap ~file obs (fun () ->
        let c = load file in
        let out_p, out_m =
          match parse_output output with
          | Nodal.Out_node p -> (p, None)
          | Nodal.Out_diff (p, m) -> (p, Some m)
        in
        let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
        Array.iter
          (fun (p : Ac.bode_point) ->
            Printf.printf "%12.5g  %10.4f dB  %10.3f deg\n" p.Ac.freq_hz p.Ac.mag_db
              p.Ac.phase_deg)
          (Ac.bode c ~out_p ?out_m freqs))
  in
  Cmd.v
    (Cmd.info "ac"
       ~doc:"Small-signal AC sweep (full MNA: supports all element types).")
    Term.(
      const run $ netlist_arg $ output_arg $ from_arg $ to_arg $ per_decade_arg
      $ obs_term)

(* --- sbg --- *)

let sbg_cmd =
  let tol_db =
    Arg.(value & opt float 0.5 & info [ "tol-db" ] ~doc:"Magnitude tolerance (dB).")
  in
  let tol_deg =
    Arg.(value & opt float 5. & info [ "tol-deg" ] ~doc:"Phase tolerance (degrees).")
  in
  let shorts_arg =
    Arg.(
      value & flag
      & info [ "shorts" ]
          ~doc:
            "Also consider shorting resistive elements (series parasitics), \
             not just opening them.")
  in
  let run file input output from_ to_ per_decade tdb tdeg shorts obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
        let config =
          {
            Sbg.default_config with
            Sbg.tolerance_db = tdb;
            tolerance_deg = tdeg;
            shortable =
              (if shorts then Sbg.default_shortable else fun _ -> false);
          }
        in
        let o = Sbg.prune ~config c ~input ~output ~freqs in
        Printf.printf
          "removed %d of %d candidate moves; residual %.3f dB / %.2f deg\n"
          (List.length o.Sbg.removals) o.Sbg.candidates o.Sbg.error_db
          o.Sbg.error_deg;
        List.iter
          (fun (r : Sbg.removal) ->
            Printf.printf
              "  - %-12s %-7s +%.4f dB / +%.4f deg  (cumulative %.4f dB / \
               %.4f deg)\n"
              r.Sbg.element
              (match r.Sbg.action with
              | Sbg.Opened -> "opened"
              | Sbg.Shorted -> "shorted")
              r.Sbg.delta_db r.Sbg.delta_deg r.Sbg.error_db r.Sbg.error_deg)
          o.Sbg.removals;
        print_string (Symref_spice.Writer.to_string o.Sbg.pruned))
  in
  Cmd.v
    (Cmd.info "sbg"
       ~doc:
         "Simplification Before Generation: prune negligible elements and \
          print the reduced netlist.")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ from_arg $ to_arg
      $ per_decade_arg $ tol_db $ tol_deg $ shorts_arg $ obs_term)

(* --- simplify --- *)

let budget_db_arg =
  let doc = "End-to-end worst-case magnitude error budget (dB)." in
  Arg.(value & opt float 0.5 & info [ "budget-db" ] ~docv:"DB" ~doc)

let budget_deg_arg =
  let doc = "End-to-end worst-case phase error budget (degrees)." in
  Arg.(value & opt float 2. & info [ "budget-deg" ] ~docv:"DEG" ~doc)

let simplify_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the serve payload JSON (identical to a daemon $(b,simplify) \
             job reply body) instead of the text report.")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int Pipeline.default_config.Pipeline.max_attempts
      & info [ "max-attempts" ]
          ~doc:"SDG/SAG tighten-and-retry rounds before the exact fallback.")
  in
  let no_shorts_arg =
    Arg.(
      value & flag
      & info [ "no-shorts" ]
          ~doc:"Forbid SBG from shorting series resistive elements.")
  in
  let input_auto_arg =
    let doc =
      "Input drive (CLI syntax, see $(b,coeffs)); $(b,auto) detects the \
       netlist's own voltage sources."
    in
    Arg.(value & opt string "auto" & info [ "i"; "input" ] ~docv:"INPUT" ~doc)
  in
  let output_auto_arg =
    let doc = "Output node (or $(b,P,M)); omitted = auto-detect." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let run file input output budget_db budget_deg from_ to_ per_decade sigma r
      max_attempts no_shorts json obs =
    check_sigma sigma;
    wrap ~file obs (fun () ->
        if json then begin
          (* One in-process service run, so the CLI JSON is byte-compatible
             with a daemon reply body for the same job. *)
          let config =
            { Serve.Service.default_config with Serve.Service.cache_bytes = 0 }
          in
          let service = Serve.Service.create ~config () in
          let job =
            {
              Serve.Protocol.default_job with
              Serve.Protocol.netlist = `Path file;
              id = Some file;
              analysis =
                Serve.Protocol.Simplify
                  { budget_db; budget_deg; from_hz = from_; to_hz = to_;
                    per_decade };
              input;
              output;
              sigma;
              r;
            }
          in
          let reply = Serve.Service.run_job service job in
          Serve.Service.shutdown service;
          print_endline (Json.to_string (Serve.Protocol.reply_to_json reply));
          if reply.Serve.Protocol.status <> Serve.Protocol.Ok then exit 1
        end
        else begin
          let c = load_nodal file in
          let c, input, output, in_desc, out_desc =
            Serve.Service.resolve_io c ~input ~output
          in
          let budget = Budget.v ~db:budget_db ~deg:budget_deg () in
          let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
          let config =
            { Pipeline.sigma; r; max_attempts; shorts = not no_shorts }
          in
          let res = Pipeline.run ~config c ~input ~output ~budget ~freqs in
          Printf.printf "simplify %s  (input %s, output %s)\n" file in_desc
            out_desc;
          Printf.printf "  elements: %d -> %d   nodal dimension: %d\n"
            res.Pipeline.elements_before res.Pipeline.elements_after
            res.Pipeline.dim;
          let exact =
            res.Pipeline.exact_num_terms + res.Pipeline.exact_den_terms
          and kept = res.Pipeline.num_terms + res.Pipeline.den_terms in
          Printf.printf
            "  terms:    num %d -> %d, den %d -> %d   (%.1fx compression)\n"
            res.Pipeline.exact_num_terms res.Pipeline.num_terms
            res.Pipeline.exact_den_terms res.Pipeline.den_terms
            (float_of_int exact /. float_of_int (Int.max 1 kept));
          Printf.printf "  attempts: %d%s\n" res.Pipeline.attempts
            (if res.Pipeline.fallback then
               "  (fell back to the exact pruned expression)"
             else "");
          if res.Pipeline.sbg.Sbg.removals <> [] then begin
            print_endline "pruned by SBG:";
            List.iter
              (fun (rm : Sbg.removal) ->
                Printf.printf "  - %-12s %-7s (cumulative %.4f dB / %.4f deg)\n"
                  rm.Sbg.element
                  (match rm.Sbg.action with
                  | Sbg.Opened -> "opened"
                  | Sbg.Shorted -> "shorted")
                  rm.Sbg.error_db rm.Sbg.error_deg)
              res.Pipeline.sbg.Sbg.removals
          end;
          print_endline "certificate:";
          List.iter
            (fun (k, v) -> Printf.printf "  %-18s %s\n" k v)
            (Certificate.to_strings res.Pipeline.certificate);
          print_endline "simplified H(s):";
          Printf.printf "  num = %s\n"
            (Nested.to_string (Nested.nest res.Pipeline.num));
          Printf.printf "  den = %s\n"
            (Nested.to_string (Nested.nest res.Pipeline.den));
          if not res.Pipeline.certificate.Certificate.within_budget then
            exit 1
        end)
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:
         "Reference-driven symbolic simplification: prune the circuit (SBG), \
          generate the exact symbolic H(s), truncate coefficients (SDG) and \
          drop function-level terms (SAG) under the error budget, then \
          re-verify the simplified H(s) against the numerical reference over \
          the full grid and print a machine-checkable error certificate.")
    Term.(
      const run $ netlist_arg $ input_auto_arg $ output_auto_arg
      $ budget_db_arg $ budget_deg_arg $ from_arg $ to_arg $ per_decade_arg
      $ sigma_arg $ r_arg $ max_attempts_arg $ no_shorts_arg $ json_arg
      $ obs_term)

(* --- poles --- *)

let poles_cmd =
  let run file input output obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let t = Reference.generate c ~input ~output in
        let a = Symref_core.Poles.analyse t in
        Format.printf "%a@?" Symref_core.Poles.pp a)
  in
  Cmd.v
    (Cmd.info "poles"
       ~doc:
         "Extract poles and zeros from the generated references (Aberth \
          iteration on the extended-range coefficients).")
    Term.(const run $ netlist_arg $ input_arg $ output_arg $ obs_term)

(* --- sensitivity --- *)

let sensitivity_cmd =
  let freq_arg =
    Arg.(
      value & opt float 1e3
      & info [ "freq" ] ~docv:"HZ" ~doc:"Analysis frequency for the detailed table.")
  in
  let top_arg =
    Arg.(value & opt int 15 & info [ "top" ] ~doc:"Rows to print.")
  in
  let run file input output freq top from_ to_ per_decade obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let entries =
          Symref_mna.Sensitivity.adjoint_at c ~input ~output ~freq_hz:freq
        in
        Printf.printf
          "normalised sensitivities at %g Hz (adjoint method, top %d):\n" freq top;
        Printf.printf "%-16s %-12s %-10s %-14s %-14s\n" "element" "value" "|S|"
          "dB per +1%" "deg per +1%";
        List.iteri
          (fun i (e : Symref_mna.Sensitivity.entry) ->
            if i < top then
              Printf.printf "%-16s %-12s %-10.4f %-14.5f %-14.5f\n"
                e.Symref_mna.Sensitivity.element
                (Symref_spice.Units.format_si e.Symref_mna.Sensitivity.value)
                (Complex.norm e.Symref_mna.Sensitivity.s)
                e.Symref_mna.Sensitivity.mag_db_per_percent
                e.Symref_mna.Sensitivity.phase_deg_per_percent)
          entries;
        let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
        let ranking =
          Symref_mna.Sensitivity.worst_case c ~input ~output ~freqs
        in
        Printf.printf "\nworst-case |S| over %g..%g Hz (top %d):\n" from_ to_ top;
        List.iteri
          (fun i (name, v) ->
            if i < top then Printf.printf "%-16s %.4f\n" name v)
          ranking)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Element sensitivities of the transfer function (perturbation).")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ freq_arg $ top_arg
      $ from_arg $ to_arg $ per_decade_arg $ obs_term)

(* --- margins --- *)

let margins_cmd =
  let run file input output obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let t = Reference.generate c ~input ~output in
        Format.printf "%a@?" Symref_core.Margins.pp (Symref_core.Margins.analyse t))
  in
  Cmd.v
    (Cmd.info "margins"
       ~doc:"Stability margins (unity-gain frequency, phase/gain margin, GBW).")
    Term.(const run $ netlist_arg $ input_arg $ output_arg $ obs_term)

(* --- noise --- *)

let noise_cmd =
  let freq_arg =
    Arg.(value & opt float 1e3 & info [ "freq" ] ~docv:"HZ" ~doc:"Analysis frequency.")
  in
  let top_arg = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Contributors to list.") in
  let run file input output freq top obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let p = Symref_mna.Noise.at c ~input ~output ~freq_hz:freq in
        Printf.printf "at %g Hz: output %.4g V^2/Hz (%.4g V/rtHz), input-referred %.4g V/rtHz\n"
          freq p.Symref_mna.Noise.output_density
          (Float.sqrt p.Symref_mna.Noise.output_density)
          (Float.sqrt p.Symref_mna.Noise.input_density);
        Printf.printf "top contributors:\n";
        List.iteri
          (fun i (e : Symref_mna.Noise.contribution) ->
            if i < top then
              Printf.printf "  %-16s %.4g V^2/Hz (%.1f%%)\n" e.Symref_mna.Noise.element
                e.Symref_mna.Noise.output_density
                (100. *. e.Symref_mna.Noise.output_density
                /. p.Symref_mna.Noise.output_density))
          p.Symref_mna.Noise.contributions)
  in
  Cmd.v
    (Cmd.info "noise" ~doc:"Output and input-referred noise with contributor ranking.")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ freq_arg $ top_arg
      $ obs_term)

(* --- monte carlo --- *)

let mc_cmd =
  let samples_arg =
    Arg.(value & opt int 100 & info [ "samples" ] ~doc:"Monte-Carlo samples.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let run file input output from_ to_ per_decade samples seed obs =
    wrap ~file obs (fun () ->
        let c = load_nodal file in
        let input = parse_input c input and output = parse_output output in
        let freqs = Grid.decades ~start:from_ ~stop:to_ ~per_decade in
        let config =
          { Symref_mna.Monte_carlo.default_config with
            Symref_mna.Monte_carlo.samples;
            seed }
        in
        let stats =
          Symref_mna.Monte_carlo.gain_spread ~config c ~input ~output ~freqs
        in
        Printf.printf "%-12s  %-10s %-10s %-8s %-10s %-10s\n" "freq (Hz)" "nominal"
          "mean" "std" "min" "max";
        Array.iter
          (fun (s : Symref_mna.Monte_carlo.stat) ->
            Printf.printf "%-12.4g  %-10.3f %-10.3f %-8.3f %-10.3f %-10.3f\n"
              s.Symref_mna.Monte_carlo.freq_hz s.Symref_mna.Monte_carlo.nominal_db
              s.Symref_mna.Monte_carlo.mean_db s.Symref_mna.Monte_carlo.std_db
              s.Symref_mna.Monte_carlo.min_db s.Symref_mna.Monte_carlo.max_db)
          stats)
  in
  Cmd.v
    (Cmd.info "mc" ~doc:"Monte-Carlo gain spread under element tolerances (dB).")
    Term.(
      const run $ netlist_arg $ input_arg $ output_arg $ from_arg $ to_arg
      $ per_decade_arg $ samples_arg $ seed_arg $ obs_term)

(* --- dot --- *)

let dot_cmd =
  let run file obs =
    wrap ~file obs (fun () -> print_string (Symref_spice.Dot.to_dot (load file)))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the netlist topology as Graphviz DOT.")
    Term.(const run $ netlist_arg $ obs_term)

(* --- tables: the built-in paper workloads --- *)

let tables_cmd =
  let run obs =
    wrap obs (fun () ->
        let module Ota = Symref_circuit.Ota in
        let problem =
          Nodal.make Ota.circuit
            ~input:(Nodal.V_diff (Ota.input_p, Ota.input_n))
            ~output:(Nodal.Out_node Ota.output)
        in
        let num = Naive.run (Evaluator.of_nodal problem ~num:true) in
        let den = Naive.run (Evaluator.of_nodal problem ~num:false) in
        print_string (Report.naive_table ~title:"[T1a] OTA, unit circle:" ~num ~den ());
        print_newline ();
        print_string
          (Report.fixed_scale_table ~title:"[T1b] OTA denominator, f = 1e9:"
             (Fixed_scale.run ~f:1e9 (Evaluator.of_nodal problem ~num:false)));
        print_newline ();
        let module Ua741 = Symref_circuit.Ua741 in
        let t =
          Reference.generate Ua741.circuit
            ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
            ~output:(Nodal.Out_node Ua741.output)
        in
        print_string
          (Report.adaptive_summary ~title:"[T2-T3] uA741 denominator passes:"
             t.Reference.den))
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Reproduce the paper's tables on the built-in circuits.")
    Term.(const run $ obs_term)

(* --- serve / submit / batch: the persistent-service front end --- *)

let socket_arg =
  let doc =
    "Daemon endpoint: a Unix domain socket path, or $(b,HOST:PORT) for TCP."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"ADDR" ~doc)

let tcp_extra_arg =
  let doc =
    "Additionally listen on this TCP endpoint ($(b,HOST:PORT)); the daemon \
     then serves both transports at once."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let workers_arg =
  let doc =
    "Worker domains, and so jobs running at once: 1 to 64 (0 = cores - 1). \
     The excess waits in the admission queue."
  in
  Arg.(value & opt int 0 & info [ "workers" ] ~doc)

(* Checked before anything starts: a fleet would otherwise hand the value
   to every worker daemon it spawns. *)
let check_workers workers =
  refuse_invalid (fun () -> Serve.Scheduler.resolve_workers workers)

let queue_arg =
  let doc =
    "Admission-queue bound behind the busy workers; submissions above it \
     are shed with a typed overloaded reply carrying a retry-after hint."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~doc)

let cache_mb_arg =
  let doc = "Result-cache budget in MiB (0 disables caching)." in
  Arg.(value & opt int 64 & info [ "cache-mb" ] ~doc)

let timeout_ms_arg =
  let doc = "Per-job wall-clock budget in milliseconds (0 = none)." in
  Arg.(value & opt int 0 & info [ "timeout-ms" ] ~doc)

let disk_cache_arg =
  let doc =
    "Persistent result-cache directory, shared across restarts and across \
     the fleet's daemon processes (omit for in-memory only)."
  in
  Arg.(value & opt (some string) None & info [ "disk-cache" ] ~docv:"DIR" ~doc)

let backlog_arg =
  let doc = "listen(2) backlog of the daemon's sockets." in
  Arg.(value & opt int 16 & info [ "backlog" ] ~doc)

let socket_mode_arg =
  let doc =
    "Permission bits (octal, e.g. $(b,600)) applied to the Unix listening \
     socket; omitted = the process umask decides."
  in
  Arg.(value & opt (some string) None & info [ "socket-mode" ] ~docv:"OCTAL" ~doc)

let parse_socket_mode = function
  | None -> None
  | Some s -> (
      match int_of_string_opt ("0o" ^ s) with
      | Some m when m >= 0 && m <= 0o777 -> Some m
      | _ ->
          Printf.eprintf "error: --socket-mode: %s is not an octal mode\n" s;
          exit 2)

let service_config ?disk_cache_dir ?(backlog = 16) ?socket_mode
    ?(queue = Serve.Service.default_config.Serve.Service.queue) workers cache_mb
    timeout_ms =
  {
    Serve.Service.workers;
    queue;
    cache_bytes = cache_mb * 1024 * 1024;
    default_timeout_ms = (if timeout_ms > 0 then Some timeout_ms else None);
    disk_cache_dir;
    backlog;
    socket_mode;
  }

let analysis_arg =
  let doc =
    "Analysis to run: $(b,reference), $(b,adaptive), $(b,bode), $(b,poles) \
     or $(b,simplify)."
  in
  Arg.(
    value
    & opt (enum [ ("reference", `Reference); ("adaptive", `Adaptive);
                  ("bode", `Bode); ("poles", `Poles);
                  ("simplify", `Simplify) ]) `Reference
    & info [ "analysis" ] ~docv:"KIND" ~doc)

let job_term =
  let auto_input_arg =
    let doc =
      "Input drive (CLI syntax, see $(b,coeffs)); $(b,auto) detects the \
       netlist's own voltage sources."
    in
    Arg.(value & opt string "auto" & info [ "i"; "input" ] ~docv:"INPUT" ~doc)
  in
  let auto_output_arg =
    let doc = "Output node (or $(b,P,M)); omitted = auto-detect." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)
  in
  let make analysis input output sigma r timeout_ms from_ to_ per_decade
      budget_db budget_deg =
    check_sigma sigma;
    let analysis =
      match analysis with
      | `Reference -> Serve.Protocol.Reference
      | `Adaptive -> Serve.Protocol.Adaptive
      | `Poles -> Serve.Protocol.Poles
      | `Bode -> Serve.Protocol.Bode { from_hz = from_; to_hz = to_; per_decade }
      | `Simplify ->
          Serve.Protocol.Simplify
            { budget_db; budget_deg; from_hz = from_; to_hz = to_; per_decade }
    in
    {
      Serve.Protocol.default_job with
      Serve.Protocol.analysis;
      input;
      output;
      sigma;
      r;
      timeout_ms = (if timeout_ms > 0 then Some timeout_ms else None);
    }
  in
  Term.(
    const make $ analysis_arg $ auto_input_arg $ auto_output_arg $ sigma_arg
    $ r_arg $ timeout_ms_arg $ from_arg $ to_arg $ per_decade_arg
    $ budget_db_arg $ budget_deg_arg)

(* Run [serve] with SIGTERM and SIGINT turned into [stop ()], the server's
   own stop request: it is one atomic store, so the handler makes it itself
   and takes no lock, and [serve] then drains and cleans up as after a
   shutdown request (exit 0, socket files unlinked). *)
let until_signalled ~stop serve =
  let handler = Sys.Signal_handle (fun _ -> stop ()) in
  let old_term = Sys.signal Sys.sigterm handler in
  let old_int = Sys.signal Sys.sigint handler in
  Fun.protect serve ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int)

let serve_cmd =
  let run socket tcp_extra workers queue cache_mb timeout_ms disk_cache backlog
      socket_mode obs =
    check_workers workers;
    wrap obs (fun () ->
        let config =
          service_config ?disk_cache_dir:disk_cache ~backlog
            ?socket_mode:(parse_socket_mode socket_mode) ~queue workers cache_mb
            timeout_ms
        in
        let listen =
          Serve.Transport.parse socket
          :: (match tcp_extra with
             | Some spec -> [ Serve.Transport.parse spec ]
             | None -> [])
        in
        let daemon = Serve.Daemon.create ~config ~listen () in
        Printf.eprintf "symref %s serving on %s\n%!" Serve.Version.version
          (String.concat ", " (List.map Serve.Transport.to_string listen));
        until_signalled
          ~stop:(fun () -> Serve.Daemon.request_stop daemon)
          (fun () -> Serve.Daemon.serve daemon))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the reference-generation daemon: newline-delimited JSON jobs \
          over a Unix domain socket or TCP (or both at once with $(b,--tcp)), \
          run on $(b,--workers) worker domains and answered from a \
          content-addressed result cache — optionally persisted on disk with \
          $(b,--disk-cache). Runs in the foreground until a shutdown request, \
          SIGTERM or SIGINT arrives, then drains: in-flight jobs finish, \
          their replies flush and the socket file is removed.")
    Term.(
      const run $ socket_arg $ tcp_extra_arg $ workers_arg $ queue_arg
      $ cache_mb_arg $ timeout_ms_arg $ disk_cache_arg $ backlog_arg
      $ socket_mode_arg $ obs_term)

let submit_cmd =
  let netlist_opt_arg =
    let doc = "Netlist file to submit (omit for --op stats/shutdown/hello)." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc)
  in
  let op_arg =
    let doc =
      "What to send: $(b,submit) a job (the default), query daemon \
       $(b,stats), $(b,hello), or request a graceful $(b,shutdown)."
    in
    Arg.(
      value
      & opt (enum [ ("submit", `Submit); ("stats", `Stats);
                    ("hello", `Hello); ("shutdown", `Shutdown) ]) `Submit
      & info [ "op" ] ~docv:"OP" ~doc)
  in
  let run socket op netlist job =
    let request =
      match op with
      | `Stats -> Serve.Protocol.Stats
      | `Hello -> Serve.Protocol.Hello
      | `Shutdown -> Serve.Protocol.Shutdown
      | `Submit -> (
          match netlist with
          | None ->
              Printf.eprintf "error: submit needs a NETLIST argument\n";
              exit 2
          | Some file ->
              let text =
                In_channel.with_open_bin file In_channel.input_all
              in
              Serve.Protocol.Submit
                { job with Serve.Protocol.netlist = `Text text; id = Some file })
    in
    let reply =
      (* Busy backpressure and transient connection failures retry with
         capped exponential backoff; a final failure is a one-line error. *)
      try Serve.Client.retry_request ~addr:(Serve.Transport.parse socket) request
      with
      | Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: %s: %s\n" socket (Unix.error_message e);
          exit 1
      | Serve.Errors.Error e ->
          Printf.eprintf "error: %s\n" (Serve.Errors.message e);
          exit 1
      | Failure m ->
          Printf.eprintf "error: %s\n" m;
          exit 1
    in
    print_endline (Json.to_string (Serve.Protocol.reply_to_json reply));
    if reply.Serve.Protocol.status <> Serve.Protocol.Ok then exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Send one request to a running daemon and print the reply line: a \
          netlist job, a stats query, or a graceful shutdown.")
    Term.(const run $ socket_arg $ op_arg $ netlist_opt_arg $ job_term)

let batch_cmd =
  let dir_arg =
    let doc = "Directory of netlists (.sp/.cir/.net/.spi/.ckt) to sweep." in
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc)
  in
  let run dir workers cache_mb timeout_ms job obs =
    check_workers workers;
    wrap obs (fun () ->
        let config = service_config workers cache_mb timeout_ms in
        let report = Serve.Batch.run ~config ~template:job dir in
        print_endline (Json.to_string (Serve.Batch.report_to_json report));
        if report.Serve.Batch.failed > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Sweep every netlist in a directory through the job scheduler \
          in-process (no socket) and print an aggregate JSON report.  Exits \
          non-zero when any file fails; individual failures are reported \
          inside the document and never stop the sweep.")
    Term.(
      const run $ dir_arg $ workers_arg $ cache_mb_arg $ timeout_ms_arg
      $ job_term $ obs_term)

let listen_arg =
  let doc = "Front endpoint to listen on (socket path or $(b,HOST:PORT))." in
  Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"ADDR" ~doc)

let replicas_arg =
  let doc = "Virtual nodes per worker on the consistent-hash ring." in
  Arg.(value & opt int 64 & info [ "replicas" ] ~doc)

let health_arg =
  let doc = "Milliseconds between Hello health probes of the workers." in
  Arg.(value & opt int 1000 & info [ "health-interval-ms" ] ~doc)

let hedge_max_arg =
  let doc =
    "Ceiling on the hedged-request delay in milliseconds: when the worker \
     a job was placed on has not answered after the p99 of recent latencies \
     (clamped to this), the job is re-issued to the next ring worker and \
     the first reply wins.  $(b,0) disables hedging."
  in
  Arg.(value & opt int 500 & info [ "hedge-max-ms" ] ~docv:"MS" ~doc)

let hedge_of_ms ms =
  if ms <= 0 then None
  else
    Some
      {
        Serve.Router.after_ms_max = float_of_int ms;
        after_ms_min =
          Float.min Serve.Router.default_hedge.Serve.Router.after_ms_min
            (float_of_int ms);
      }

let router_cmd =
  let worker_args =
    let doc =
      "A worker daemon's endpoint (repeatable; socket path or \
       $(b,HOST:PORT))."
    in
    Arg.(non_empty & opt_all string [] & info [ "worker" ] ~docv:"ADDR" ~doc)
  in
  let run listen workers replicas health_ms hedge_max_ms backlog obs =
    wrap obs (fun () ->
        let router =
          Serve.Router.create ~replicas ~hedge:(hedge_of_ms hedge_max_ms)
            (List.map Serve.Transport.parse workers)
        in
        let server =
          Serve.Router.create_server ~backlog ~health_interval_ms:health_ms
            ~listen:[ Serve.Transport.parse listen ]
            router
        in
        Printf.eprintf "symref %s routing %d workers on %s\n%!"
          Serve.Version.version (List.length workers)
          (String.concat ", "
             (List.map Serve.Transport.to_string
                (Serve.Router.server_addresses server)));
        until_signalled
          ~stop:(fun () -> Serve.Router.request_stop server)
          (fun () -> Serve.Router.serve server))
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Run the fleet front end: consistent-hash jobs across the \
          $(b,--worker) daemons (same NDJSON protocol as $(b,serve)), each \
          on its owner unless the owner already holds its share of the \
          forwards in flight, with per-worker circuit breakers fed by Hello \
          health probes, hedged requests against the tail, and automatic \
          failover to the next worker on the ring.  A stats reply lists \
          each worker's own stats reply (under $(b,workers[].stats)) next \
          to its breaker state and forwards in flight; nothing is summed \
          across workers.  \
          Runs in the foreground until a shutdown request, SIGTERM or \
          SIGINT arrives, then drains and removes its socket file.")
    Term.(
      const run $ listen_arg $ worker_args $ replicas_arg $ health_arg
      $ hedge_max_arg $ backlog_arg $ obs_term)

let fleet_cmd =
  let size_arg =
    let doc = "Worker daemons to supervise." in
    Arg.(value & opt int 2 & info [ "size" ] ~docv:"N" ~doc)
  in
  let dir_arg =
    let doc =
      "Fleet state directory: worker Unix sockets live at \
       $(b,DIR/worker-<i>.sock) (stable across restarts, so the hash ring \
       never moves) and, unless $(b,--disk-cache) overrides it, the shared \
       persistent result cache at $(b,DIR/cache)."
    in
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let grace_arg =
    let doc =
      "Seconds between shutdown-escalation rungs (protocol shutdown, then \
       SIGTERM, then SIGKILL)."
    in
    Arg.(value & opt float 2.0 & info [ "grace-s" ] ~doc)
  in
  let crash_budget_arg =
    let doc =
      "Crashes a worker slot may burn within 30 s before the supervisor \
       gives it up (the rest of the fleet keeps serving)."
    in
    Arg.(
      value
      & opt int Serve.Supervisor.default_config.Serve.Supervisor.crash_budget
      & info [ "crash-budget" ] ~doc)
  in
  let run listen size dir workers queue cache_mb timeout_ms disk_cache replicas
      health_ms hedge_max_ms backlog grace_s crash_budget obs =
    check_workers workers;
    wrap obs (fun () ->
        if size < 1 then begin
          Printf.eprintf "error: --size must be >= 1\n";
          exit 2
        end;
        let rec mkdir_p d =
          if not (Sys.file_exists d) then begin
            let parent = Filename.dirname d in
            if parent <> d then mkdir_p parent;
            try Unix.mkdir d 0o755
            with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
          end
        in
        mkdir_p dir;
        let sleepf s =
          try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        in
        let sock i = Filename.concat dir (Printf.sprintf "worker-%d.sock" i) in
        let cache_dir =
          match disk_cache with
          | Some d -> d
          | None -> Filename.concat dir "cache"
        in
        (* Each slot execs a plain [symref serve] on its fixed socket — a
           restarted worker rebinds the same address, so the ring (and every
           client's routing) is untouched by the crash. *)
        let spawn ~slot =
          (* Glued --opt=value spelling: a bare negative value would read
             as an unknown option to the worker's own parser. *)
          let args =
            [|
              Sys.executable_name; "serve";
              "--socket=" ^ sock slot;
              "--workers=" ^ string_of_int workers;
              "--queue=" ^ string_of_int queue;
              "--cache-mb=" ^ string_of_int cache_mb;
              "--timeout-ms=" ^ string_of_int timeout_ms;
              "--disk-cache=" ^ cache_dir;
            |]
          in
          Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr
        in
        let sup =
          Serve.Supervisor.create
            ~config:
              {
                Serve.Supervisor.default_config with
                Serve.Supervisor.crash_budget;
              }
            ~slots:size ~spawn ()
        in
        let monitor = Serve.Supervisor.run sup in
        (* Wait (bounded, 10 s per worker) for the first generation to
           answer Hello, so the front opens with closed breakers instead of
           tripping them all on the first probe round.  A worker binds in a
           few ms, so the poll step is 5 ms. *)
        let quick =
          { Serve.Client.default_backoff with Serve.Client.attempts = 1 }
        in
        let answers addr =
          match
            Serve.Client.retry_request ~backoff:quick ~addr Serve.Protocol.Hello
          with
          | _ -> true
          | exception _ -> false
        in
        for i = 0 to size - 1 do
          let addr = Serve.Transport.Unix_sock (sock i) in
          let tries = ref 0 in
          while (not (answers addr)) && !tries < 2000 do
            incr tries;
            sleepf 0.005
          done
        done;
        let addrs =
          List.init size (fun i -> Serve.Transport.Unix_sock (sock i))
        in
        let router =
          Serve.Router.create ~replicas ~hedge:(hedge_of_ms hedge_max_ms) addrs
        in
        let server =
          Serve.Router.create_server ~backlog ~health_interval_ms:health_ms
            ~listen:[ Serve.Transport.parse listen ]
            router
        in
        until_signalled
          ~stop:(fun () -> Serve.Router.request_stop server)
          (fun () ->
            Printf.eprintf "symref %s fleet: %d workers under %s, front on %s\n%!"
              Serve.Version.version size dir
              (String.concat ", "
                 (List.map Serve.Transport.to_string
                    (Serve.Router.server_addresses server)));
            Serve.Router.serve server;
            let notify ~slot ~pid:_ =
              ignore
                (Serve.Client.retry_request ~backoff:quick
                   ~addr:(Serve.Transport.Unix_sock (sock slot))
                   Serve.Protocol.Shutdown)
            in
            Serve.Supervisor.stop ~grace_s ~notify sup;
            Thread.join monitor))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run a self-healing serve fleet under one command: spawn $(b,--size) \
          worker daemons on fixed sockets under $(b,--dir), supervise them \
          (crashed workers restart with capped backoff; a slot that crashes \
          past $(b,--crash-budget) is given up), and front them with the \
          consistent-hash router — circuit breakers, hedged requests, \
          failover.  SIGTERM (or a shutdown request to the front) drains \
          gracefully: protocol shutdown to every worker, then SIGTERM, then \
          SIGKILL, each $(b,--grace-s) apart.")
    Term.(
      const run $ listen_arg $ size_arg $ dir_arg $ workers_arg $ queue_arg
      $ cache_mb_arg $ timeout_ms_arg $ disk_cache_arg
      $ replicas_arg $ health_arg $ hedge_max_arg $ backlog_arg $ grace_arg
      $ crash_budget_arg $ obs_term)

let main =
  let doc = "numerical reference generation for symbolic analysis of analog circuits" in
  Cmd.group
    (Cmd.info "symref" ~version:Serve.Version.version ~doc)
    [
      info_cmd;
      coeffs_cmd;
      doctor_cmd;
      bode_cmd;
      ac_cmd;
      sbg_cmd;
      simplify_cmd;
      poles_cmd;
      sensitivity_cmd;
      margins_cmd;
      noise_cmd;
      mc_cmd;
      dot_cmd;
      tables_cmd;
      serve_cmd;
      submit_cmd;
      batch_cmd;
      router_cmd;
      fleet_cmd;
    ]

let () =
  (* Chaos configuration from the environment (SYMREF_FAULT /
     SYMREF_FAULT_SEED) — a no-op when neither variable is set. *)
  (try Inject.arm_from_env ()
   with Failure m ->
     Printf.eprintf "error: SYMREF_FAULT: %s\n" m;
     exit 2);
  exit (Cmd.eval main)
