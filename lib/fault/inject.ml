(* Deterministic fault injection for the reference pipeline.

   The contract mirrors [Symref_obs.Metrics]: while disabled (the default),
   [fire] is one non-atomic bool load and a branch — no allocation, no
   atomic traffic — so injection points can live on the hottest paths of
   the pipeline.  While enabled, hit counting is [Atomic] so jobs running
   on the serve scheduler's worker domains decide every firing exactly
   once, and every decision is a pure function of (seed, point name, hit
   index): a chaos run replays bit-identically under any interleaving of
   the hits. *)

let enabled_flag = ref false
let seed_cell = ref 0

type plan =
  | Never
  | Times of { skip : int; count : int }
  | Every of int
  | Probability of float

type point = {
  p_name : string;
  hits : int Atomic.t;
  fired_count : int Atomic.t;
  mutable plan : plan;
  mutable payload : float;
}

let registry_lock = Mutex.create ()
let points : point list ref = ref []

let register name =
  let p =
    {
      p_name = name;
      hits = Atomic.make 0;
      fired_count = Atomic.make 0;
      plan = Never;
      payload = 0.;
    }
  in
  Mutex.lock registry_lock;
  points := p :: !points;
  Mutex.unlock registry_lock;
  p

let enabled () = !enabled_flag

let reset () =
  List.iter
    (fun p ->
      Atomic.set p.hits 0;
      Atomic.set p.fired_count 0;
      p.plan <- Never;
      p.payload <- 0.)
    !points

let enable ?(seed = 0) () =
  reset ();
  seed_cell := seed;
  enabled_flag := true

let disable () =
  enabled_flag := false;
  reset ()

let arm ?(payload = 0.) p plan =
  Atomic.set p.hits 0;
  Atomic.set p.fired_count 0;
  p.payload <- payload;
  p.plan <- plan

(* SplitMix64-style integer mixer: cheap, stateless, and good enough to
   decouple the per-hit uniforms of different points under one seed. *)
let mix64 x =
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let uniform ~seed ~name ~hit =
  let h = Int64.of_int (Hashtbl.hash (seed, name, hit)) in
  let bits = Int64.to_int (Int64.logand (mix64 h) 0x1fffffffffffffL) in
  float_of_int bits /. 9007199254740992. (* / 2^53: uniform in [0, 1) *)

let decide p h =
  match p.plan with
  | Never -> false
  | Times { skip; count } -> h >= skip && h < skip + count
  | Every n -> n > 0 && h mod n = 0
  | Probability q -> uniform ~seed:!seed_cell ~name:p.p_name ~hit:h < q

let fire p =
  if not !enabled_flag then false
  else begin
    let h = Atomic.fetch_and_add p.hits 1 in
    let f = decide p h in
    if f then Atomic.incr p.fired_count;
    f
  end

let payload p = p.payload
let hits p = Atomic.get p.hits
let fired p = Atomic.get p.fired_count
let name p = p.p_name
let all () = List.rev !points
let find name = List.find_opt (fun p -> p.p_name = name) !points

exception Injected of string

let fail p = raise (Injected ("injected fault: " ^ p.p_name))
let sleep_payload p = if p.payload > 0. then Unix.sleepf (p.payload /. 1000.)

(* --- the pipeline's injection-point catalogue ----------------------------

   Registered here, like the Metrics catalogue, so the chaos tests, the CLI
   and [doc/robustness.mld] agree on one name per failure site. *)

let sparse_singular = register "sparse.singular"
let eval_nan = register "evaluator.nan"
let eval_raise = register "evaluator.raise"
let eval_delay = register "evaluator.delay"
let serve_drop = register "serve.drop_connection"
let serve_partial = register "serve.partial_write"

(* Fleet-level faults: a worker that answers slowly (the hedging trigger)
   and a worker that dies abruptly on the n-th job (the supervisor's
   restart trigger).  [serve.crash] is acted out by the daemon with
   [Unix._exit], so it only makes sense armed in a real worker process —
   the chaos bench arms it through the child's environment. *)
let serve_slow = register "serve.slow_worker"
let serve_crash = register "serve.crash"

(* --- environment arming --------------------------------------------------

   SYMREF_FAULT="point:key=val,...;point2:..." arms points at program start
   (the CLI calls [arm_from_env] before running a subcommand); SYMREF_FAULT_SEED
   alone enables the registry with nothing armed — the CI bit-identity gate
   runs exactly that configuration against a plain run. *)

let parse_spec spec =
  let parse_point part =
    match String.index_opt part ':' with
    | None -> failwith (Printf.sprintf "fault spec %S: missing ':'" part)
    | Some i ->
        let pname = String.sub part 0 i in
        let p =
          match find pname with
          | Some p -> p
          | None -> failwith (Printf.sprintf "unknown fault point %S" pname)
        in
        let skip = ref 0 and count = ref 1 and payload = ref 0. in
        let plan = ref None in
        let args = String.sub part (i + 1) (String.length part - i - 1) in
        List.iter
          (fun kv ->
            match String.split_on_char '=' kv with
            | [ "skip"; v ] -> skip := int_of_string v
            | [ "count"; v ] -> count := int_of_string v
            | [ "every"; v ] -> plan := Some (Every (int_of_string v))
            | [ "p"; v ] -> plan := Some (Probability (float_of_string v))
            | [ "payload"; v ] -> payload := float_of_string v
            | _ -> failwith (Printf.sprintf "fault spec: bad key=value %S" kv))
          (List.filter (fun s -> s <> "") (String.split_on_char ',' args));
        let plan =
          match !plan with
          | Some p -> p
          | None -> Times { skip = !skip; count = !count }
        in
        arm ~payload:!payload p plan
  in
  List.iter parse_point
    (List.filter (fun s -> s <> "") (String.split_on_char ';' spec))

let arm_from_env () =
  let seed =
    match Sys.getenv_opt "SYMREF_FAULT_SEED" with
    | Some s -> ( match int_of_string_opt s with Some n -> Some n | None -> None)
    | None -> None
  in
  let spec = Sys.getenv_opt "SYMREF_FAULT" in
  match (seed, spec) with
  | None, None -> ()
  | seed, spec ->
      enable ?seed ();
      Option.iter parse_spec spec
