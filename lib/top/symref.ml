(** Umbrella namespace: one [open Symref] (or qualified [Symref.X]) reaches
    every module of the library with its natural name.

    {2 Numerics}
    {!Extfloat}, {!Extcomplex} — extended-range arithmetic;
    {!Cx}, {!Stats}, {!Grid} — helpers.

    {2 Polynomials and transforms}
    {!Poly}, {!Epoly}, {!Roots}; {!Unit_circle}, {!Dft}, {!Fft}.

    {2 Linear algebra}
    {!Dense}, {!Sparse} — complex LU with extended-range determinants;
    {!Kernel} — the recorded elimination program and its batched replay.

    {2 Circuits}
    {!Element}, {!Netlist}, {!Devices}, {!Transform};
    workloads {!Rc_ladder}, {!Ota}, {!Ua741}, {!Gm_c}, {!Biquad},
    {!Two_stage_miller}, {!Random_net}; SPICE {!Units}, {!Parser},
    {!Writer}.

    {2 Analyses}
    {!Nodal}, {!Ac}, {!Sensitivity}, {!Noise}, {!Monte_carlo}.

    {2 The paper's algorithms}
    {!Evaluator}, {!Interp}, {!Band}, {!Scaling}, {!Naive}, {!Fixed_scale},
    {!Adaptive}, {!Reference}, {!Poles}, {!Margins}, {!Verify}, {!Report},
    {!Ascii_plot}.

    {2 Symbolic analysis}
    {!Sym}, {!Sdet}, {!Sdg}, {!Sbg}, {!Sag}, {!Nested}.

    {2 Simplification}
    {!Simplify_budget}, {!Simplify_certificate}, {!Simplify_pipeline} — the
    reference-driven simplification service of {!page-simplify}: SBG → SDG
    → SAG under a split error budget, re-verified against the numerical
    reference into a machine-checkable certificate ({!Deviation} holds the
    grid-deviation statistics).

    {2 Observability}
    {!Metrics}, {!Trace}, {!Snapshot}, {!Json}.

    {2 Fault injection}
    {!Inject} — the deterministic chaos registry of {!page-robustness}.

    {2 The serve subsystem}
    {!Serve_protocol}, {!Serve_service}, {!Serve_daemon}, {!Serve_client},
    {!Serve_batch} — the persistent reference-generation service of
    {!page-serve}; {!Serve_transport} names its endpoints (Unix socket or
    TCP), {!Serve_front} is where a request enters (the accept loop and
    the NDJSON exchange the daemon and the router share),
    {!Serve_disk_cache} is the persistent result-cache layer,
    {!Serve_router} the consistent-hash fleet front end;
    {!Serve_errors} is its typed failure taxonomy;
    {!Version} is the package version the daemon reports. *)

(* numerics *)
module Extfloat = Symref_numeric.Extfloat
module Extcomplex = Symref_numeric.Extcomplex
module Cx = Symref_numeric.Cx
module Stats = Symref_numeric.Stats
module Grid = Symref_numeric.Grid

(* polynomials and transforms *)
module Poly = Symref_poly.Poly
module Epoly = Symref_poly.Epoly
module Roots = Symref_poly.Roots
module Unit_circle = Symref_dft.Unit_circle
module Dft = Symref_dft.Dft
module Fft = Symref_dft.Fft

(* linear algebra *)
module Dense = Symref_linalg.Dense
module Sparse = Symref_linalg.Sparse
module Kernel = Symref_linalg.Kernel

(* circuits *)
module Element = Symref_circuit.Element
module Netlist = Symref_circuit.Netlist
module Devices = Symref_circuit.Devices
module Transform = Symref_circuit.Transform
module Rc_ladder = Symref_circuit.Rc_ladder
module Ota = Symref_circuit.Ota
module Ua741 = Symref_circuit.Ua741
module Gm_c = Symref_circuit.Gm_c
module Biquad = Symref_circuit.Biquad
module Random_net = Symref_circuit.Random_net
module Two_stage_miller = Symref_circuit.Two_stage_miller

(* SPICE *)
module Units = Symref_spice.Units
module Parser = Symref_spice.Parser
module Writer = Symref_spice.Writer
module Dot = Symref_spice.Dot

(* analyses *)
module Nodal = Symref_mna.Nodal
module Ac = Symref_mna.Ac
module Sensitivity = Symref_mna.Sensitivity
module Noise = Symref_mna.Noise
module Monte_carlo = Symref_mna.Monte_carlo

(* the paper's algorithms *)
module Evaluator = Symref_core.Evaluator
module Interp = Symref_core.Interp
module Band = Symref_core.Band
module Scaling = Symref_core.Scaling
module Naive = Symref_core.Naive
module Fixed_scale = Symref_core.Fixed_scale
module Adaptive = Symref_core.Adaptive
module Reference = Symref_core.Reference
module Poles = Symref_core.Poles
module Margins = Symref_core.Margins
module Report = Symref_core.Report
module Ascii_plot = Symref_core.Ascii_plot
module Verify = Symref_core.Verify
module Deviation = Symref_core.Deviation

(* symbolic analysis *)
module Sym = Symref_symbolic.Sym
module Sdet = Symref_symbolic.Sdet
module Sdg = Symref_symbolic.Sdg
module Sbg = Symref_symbolic.Sbg
module Sag = Symref_symbolic.Sag
module Nested = Symref_symbolic.Nested

(* simplification *)
module Simplify_budget = Symref_simplify.Budget
module Simplify_certificate = Symref_simplify.Certificate
module Simplify_pipeline = Symref_simplify.Pipeline

(* observability *)
module Metrics = Symref_obs.Metrics
module Trace = Symref_obs.Trace
module Snapshot = Symref_obs.Snapshot
module Json = Symref_obs.Json

(* fault injection *)
module Inject = Symref_fault.Inject

(* the serve subsystem *)
module Serve_protocol = Symref_serve.Protocol
module Serve_service = Symref_serve.Service
module Serve_front = Symref_serve.Front
module Serve_daemon = Symref_serve.Daemon
module Serve_client = Symref_serve.Client
module Serve_errors = Symref_serve.Errors
module Serve_batch = Symref_serve.Batch
module Serve_transport = Symref_serve.Transport
module Serve_disk_cache = Symref_serve.Disk_cache
module Serve_router = Symref_serve.Router
module Serve_supervisor = Symref_serve.Supervisor
module Version = Symref_serve.Version
