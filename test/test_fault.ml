(* Chaos tests: the fault-injection registry itself, singular-point
   recovery in the interpolation pipeline, structured failure replies, and
   the client's retry/backoff loop — plus the bit-identity guarantees that
   make the hooks safe to leave compiled into the hot paths.

   Every test that enables the registry disables it in a [Fun.protect]
   finaliser: the suites run sequentially in one executable, so leaked
   injection state would contaminate whatever runs next. *)

module Inject = Symref_fault.Inject
module Adaptive = Symref_core.Adaptive
module Evaluator = Symref_core.Evaluator
module Reference = Symref_core.Reference
module Nodal = Symref_mna.Nodal
module Ua741 = Symref_circuit.Ua741
module Ladder = Symref_circuit.Rc_ladder
module Ef = Symref_numeric.Extfloat
module Serve = Symref_serve
module Protocol = Serve.Protocol
module Service = Serve.Service
module Scheduler = Serve.Scheduler
module Client = Serve.Client
module Errors = Serve.Errors
module Json = Symref_obs.Json

let with_registry f = Fun.protect ~finally:Inject.disable f

(* --- the registry itself --- *)

let test_registry_plans () =
  with_registry (fun () ->
      Alcotest.(check bool) "disabled: fire is false" false
        (Inject.fire Inject.eval_raise);
      Alcotest.(check int) "disabled: hits not counted" 0
        (Inject.hits Inject.eval_raise);
      Inject.enable ();
      Alcotest.(check bool) "enabled but disarmed" false
        (Inject.fire Inject.eval_raise);
      Alcotest.(check int) "hits counted while enabled" 1
        (Inject.hits Inject.eval_raise);
      Inject.arm Inject.eval_raise (Inject.Times { skip = 1; count = 2 });
      let fires = List.init 5 (fun _ -> Inject.fire Inject.eval_raise) in
      Alcotest.(check (list bool)) "Times {skip=1; count=2}"
        [ false; true; true; false; false ]
        fires;
      Alcotest.(check int) "fired count" 2 (Inject.fired Inject.eval_raise);
      Inject.arm Inject.eval_delay (Inject.Every 3);
      let fires = List.init 7 (fun _ -> Inject.fire Inject.eval_delay) in
      Alcotest.(check (list bool)) "Every 3"
        [ true; false; false; true; false; false; true ]
        fires;
      (* Probability decisions are a pure function of (seed, name, hit):
         re-arming under the same seed replays the exact firing pattern. *)
      let sample () =
        Inject.enable ~seed:42 ();
        Inject.arm Inject.eval_nan (Inject.Probability 0.5);
        List.init 64 (fun _ -> Inject.fire Inject.eval_nan)
      in
      let a = sample () and b = sample () in
      Alcotest.(check (list bool)) "seeded replay is identical" a b;
      let on = List.length (List.filter Fun.id a) in
      Alcotest.(check bool)
        (Printf.sprintf "p=0.5 fires a reasonable fraction (%d/64)" on)
        true
        (on > 16 && on < 48))

let test_env_spec_arming () =
  Fun.protect ~finally:(fun () ->
      Unix.putenv "SYMREF_FAULT" "";
      Inject.disable ())
  @@ fun () ->
  (match Inject.find "sparse.singular" with
  | Some p ->
      Alcotest.(check string) "find by name" "sparse.singular" (Inject.name p)
  | None -> Alcotest.fail "catalogue point findable by name");
  Alcotest.(check bool) "unknown point is None" true
    (Inject.find "no.such.point" = None);
  Alcotest.(check bool) "catalogue registered" true
    (List.length (Inject.all ()) >= 6);
  (* The SYMREF_FAULT syntax, end to end through the environment. *)
  Unix.putenv "SYMREF_FAULT"
    "evaluator.delay:skip=2,count=3,payload=5;sparse.singular:every=4";
  Inject.arm_from_env ();
  Alcotest.(check bool) "env arming enables" true (Inject.enabled ());
  Alcotest.(check (float 1e-9)) "payload parsed" 5.
    (Inject.payload Inject.eval_delay);
  let fires = List.init 6 (fun _ -> Inject.fire Inject.eval_delay) in
  Alcotest.(check (list bool)) "skip/count parsed"
    [ false; false; true; true; true; false ]
    fires;
  let fires = List.init 5 (fun _ -> Inject.fire Inject.sparse_singular) in
  Alcotest.(check (list bool)) "every parsed"
    [ true; false; false; false; true ]
    fires

(* --- bit-identity: the hooks must be invisible until armed --- *)

let ladder_result () =
  let ev =
    Evaluator.of_nodal
      (Nodal.make (Ladder.circuit 4) ~input:(Nodal.Vsrc_element "vin")
         ~output:(Nodal.Out_node Ladder.output_node))
      ~num:false
  in
  Adaptive.run ev

let coeff_strings (r : Adaptive.result) =
  Array.to_list (Array.map Ef.to_string r.Adaptive.coeffs)

let test_bit_identity_when_not_firing () =
  let clean = ladder_result () in
  Alcotest.(check int) "clean run: no singular retries" 0
    clean.Adaptive.diagnosis.Adaptive.singular_retries;
  (* Enabled but nothing armed (the SYMREF_FAULT_SEED-only CI
     configuration): hit counters tick, results do not move a bit. *)
  let enabled_unarmed =
    with_registry (fun () ->
        Inject.enable ~seed:7 ();
        let r = ladder_result () in
        Alcotest.(check bool) "hooks were reached" true
          (Inject.hits Inject.eval_nan > 0);
        Alcotest.(check int) "nothing fired" 0 (Inject.fired Inject.eval_nan);
        r)
  in
  let after_disable = ladder_result () in
  Alcotest.(check (list string)) "enabled-unarmed bit-identical"
    (coeff_strings clean)
    (coeff_strings enabled_unarmed);
  Alcotest.(check (list string)) "after-disable bit-identical"
    (coeff_strings clean)
    (coeff_strings after_disable)

(* --- singular-point recovery --- *)

let ua741_reference () =
  Reference.generate Ua741.circuit
    ~input:(Nodal.V_diff (Ua741.input_p, Ua741.input_n))
    ~output:(Nodal.Out_node Ua741.output)

let check_side_matches name (a : Adaptive.result) (b : Adaptive.result) =
  Alcotest.(check int)
    (name ^ ": same coefficient count")
    (Array.length a.Adaptive.coeffs)
    (Array.length b.Adaptive.coeffs);
  Array.iteri
    (fun i ca ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: coefficient %d matches to sigma digits" name i)
        true
        (Ef.approx_equal ~rel:1e-6 ca b.Adaptive.coeffs.(i)))
    a.Adaptive.coeffs

let test_singular_pivot_recovery_ua741 () =
  let clean = ua741_reference () in
  let injected =
    with_registry (fun () ->
        Inject.enable ();
        (* Two consecutive hits cover the (refactor -> fallback factor)
           pair of one evaluation whichever call hit 10 lands on, so one
           interpolation point sees a fully singular factorisation and the
           perturbed-point guard must recover it. *)
        Inject.arm Inject.sparse_singular (Inject.Times { skip = 10; count = 2 });
        let r = ua741_reference () in
        Alcotest.(check int) "both injected hits consumed" 2
          (Inject.fired Inject.sparse_singular);
        r)
  in
  Alcotest.(check bool) "num still converges" true
    injected.Reference.num.Adaptive.converged;
  Alcotest.(check bool) "den still converges" true
    injected.Reference.den.Adaptive.converged;
  let retries (t : Reference.t) =
    t.Reference.num.Adaptive.diagnosis.Adaptive.singular_retries
    + t.Reference.den.Adaptive.diagnosis.Adaptive.singular_retries
  in
  let giveups (t : Reference.t) =
    t.Reference.num.Adaptive.diagnosis.Adaptive.retry_giveups
    + t.Reference.den.Adaptive.diagnosis.Adaptive.retry_giveups
  in
  Alcotest.(check bool) "recovery counted" true (retries injected >= 1);
  Alcotest.(check int) "no give-ups" 0 (giveups injected);
  Alcotest.(check int) "clean run recovered nothing" 0 (retries clean);
  check_side_matches "num" clean.Reference.num injected.Reference.num;
  check_side_matches "den" clean.Reference.den injected.Reference.den;
  (* The verdict the serve payload and [symref doctor] report. *)
  let h = Reference.health injected in
  Alcotest.(check bool) "injected run still verifies healthy" true
    h.Reference.healthy

let test_nan_poisoning_recovery () =
  let clean = ladder_result () in
  let injected =
    with_registry (fun () ->
        Inject.enable ();
        (* NaN-poison the 2nd evaluation point: the assembled matrix is all
           NaN, the pivot search fails, and the evaluation degrades to the
           singular path the guard retries. *)
        Inject.arm Inject.eval_nan (Inject.Times { skip = 1; count = 1 });
        let r = ladder_result () in
        Alcotest.(check int) "poisoned exactly once" 1
          (Inject.fired Inject.eval_nan);
        r)
  in
  Alcotest.(check bool) "still converges" true injected.Adaptive.converged;
  Alcotest.(check bool) "recovery counted" true
    (injected.Adaptive.diagnosis.Adaptive.singular_retries >= 1);
  Alcotest.(check int) "no give-ups" 0
    injected.Adaptive.diagnosis.Adaptive.retry_giveups;
  check_side_matches "ladder den" clean injected

(* --- structured failure replies --- *)

let rc_text = "rc\nr1 in out 1k\nc1 out 0 1u\nv1 in 0 ac 1\n.end\n"

let reference_job ?id ?timeout_ms text =
  { Protocol.default_job with Protocol.id; netlist = `Text text; timeout_ms }

let test_injected_exception_is_structured () =
  with_registry (fun () ->
      Inject.enable ();
      Inject.arm Inject.eval_raise (Inject.Times { skip = 0; count = 1 });
      let s = Service.create () in
      let r = Service.run_job s (reference_job ~id:"chaos" rc_text) in
      Alcotest.(check bool) "error status" true
        (r.Protocol.status = Protocol.Error);
      Alcotest.(check (option string)) "kind" (Some "injected")
        (Protocol.error_kind r);
      (* The worker survives: the same service computes the next job. *)
      Inject.reset ();
      let ok = Service.run_job s (reference_job ~id:"after" rc_text) in
      Alcotest.(check bool) "service alive after injected fault" true
        (ok.Protocol.status = Protocol.Ok);
      Service.shutdown s)

let test_bad_spec_is_typed () =
  (match Service.parse_output "a,b,c" with
  | exception Errors.Error (Errors.Bad_spec _ as e) ->
      Alcotest.(check string) "spec kind" "spec" (Errors.kind e);
      Alcotest.(check bool) "spec errors are not transient" false
        (Errors.transient e)
  | exception e -> Alcotest.fail ("expected Bad_spec, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "malformed output spec must raise");
  let s = Service.create () in
  let r =
    Service.run_job s
      { (reference_job ~id:"spec" rc_text) with Protocol.input = "bogus:x" }
  in
  Alcotest.(check bool) "error status" true (r.Protocol.status = Protocol.Error);
  Alcotest.(check (option string)) "reply kind" (Some "spec")
    (Protocol.error_kind r);
  Service.shutdown s

(* --- client backoff --- *)

let test_backoff_schedule () =
  let b = { Client.default_backoff with Client.seed = 3 } in
  let s1 = Client.backoff_schedule b and s2 = Client.backoff_schedule b in
  Alcotest.(check int) "attempts-1 delays" (b.Client.attempts - 1)
    (Array.length s1);
  Alcotest.(check (array (float 0.))) "schedule is deterministic" s1 s2;
  Array.iteri
    (fun n d ->
      let nominal =
        Float.min b.Client.max_delay_ms
          (b.Client.base_delay_ms *. (b.Client.multiplier ** float_of_int n))
      in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within the jitter band of %g" n nominal)
        true
        (Float.abs (d -. nominal) <= (b.Client.jitter /. 2.) *. nominal +. 1e-9))
    s1;
  (* The cap holds even when the exponential has run far past it. *)
  let capped =
    Client.backoff_schedule
      {
        Client.attempts = 8;
        base_delay_ms = 100.;
        multiplier = 10.;
        max_delay_ms = 250.;
        jitter = 0.2;
        seed = 0;
      }
  in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "capped delay" true (d <= 250. *. 1.1 +. 1e-9))
    capped;
  let different = Client.backoff_schedule { b with Client.seed = 4 } in
  Alcotest.(check bool) "different seed, different jitter" true
    (s1 <> different)

(* A daemon with one worker and no queue, its worker held by a gated job:
   submissions are deterministically Busy until the gate opens. *)
let with_gated_daemon f =
  let dir = Filename.temp_dir "symref-fault" "" in
  let socket_path = Filename.concat dir "symref.sock" in
  let addr = Serve.Transport.Unix_sock socket_path in
  (* queue:0 — backpressure must surface as a reply, not as queueing. *)
  let config =
    { Service.default_config with Service.workers = 1; queue = 0 }
  in
  let daemon = Serve.Daemon.create ~config ~listen:[ addr ] () in
  let daemon_thread = Thread.create Serve.Daemon.serve daemon in
  let sched = Service.scheduler (Serve.Daemon.service daemon) in
  let gate = Mutex.create () in
  let opened = Condition.create () in
  let released = ref false in
  let release () =
    Mutex.lock gate;
    released := true;
    Condition.broadcast opened;
    Mutex.unlock gate
  in
  let hold () =
    match
      Scheduler.submit sched (fun () ->
          Mutex.lock gate;
          while not !released do
            Condition.wait opened gate
          done;
          Mutex.unlock gate;
          Protocol.ok (Json.Obj []))
    with
    | Scheduler.Admitted _ -> ()
    | Scheduler.Shed _ | Scheduler.Stopped ->
        Alcotest.fail "gated job must be admitted"
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      (try
         Serve.Client.with_connection ~addr (fun c ->
             ignore (Serve.Client.request c Protocol.Shutdown))
       with _ -> ());
      Thread.join daemon_thread;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () -> f ~addr ~sched ~hold ~release)

let test_busy_retry_until_admitted () =
  with_gated_daemon (fun ~addr ~sched ~hold ~release ->
      hold ();
      (* The shed reply's retry hint is the scheduler's own estimate — read
         it up front so the slept delay can be asserted exactly. *)
      let hint = Scheduler.retry_after_estimate sched in
      let slept = ref [] in
      let sleep ms =
        slept := ms :: !slept;
        (* Opening the gate inside the backoff sleep makes the next attempt
           deterministically admissible: the slot drains before we retry. *)
        release ();
        Scheduler.drain sched
      in
      let reply =
        Client.retry_request ~sleep ~addr
          (Protocol.Submit (reference_job ~id:"busy-then-ok" rc_text))
      in
      Alcotest.(check bool) "admitted after backoff" true
        (reply.Protocol.status = Protocol.Ok);
      Alcotest.(check int) "exactly one retry slept" 1 (List.length !slept);
      let expected =
        Client.delay_after Client.default_backoff ~attempt:0
          ~retry_after_ms:(Some hint)
      in
      Alcotest.(check (float 1e-9)) "slept the server's retry-after hint"
        expected (List.hd !slept))

let test_busy_giveup_is_structured () =
  with_gated_daemon (fun ~addr ~sched ~hold ~release:_ ->
      hold ();
      let hint = Scheduler.retry_after_estimate sched in
      let backoff = { Client.default_backoff with Client.attempts = 3 } in
      let slept = ref [] in
      let sleep ms = slept := ms :: !slept in
      let reply =
        Client.retry_request ~backoff ~sleep ~addr
          (Protocol.Submit (reference_job ~id:"always-busy" rc_text))
      in
      (* Budget exhausted: the final Overloaded reply comes back as a value,
         not an exception — the caller decides what backpressure means. *)
      Alcotest.(check bool) "gave up with the Overloaded reply" true
        (reply.Protocol.status = Protocol.Overloaded);
      Alcotest.(check (option string)) "overloaded kind" (Some "overloaded")
        (Protocol.error_kind reply);
      Alcotest.(check bool) "reply carries the retry hint" true
        (Protocol.retry_after_ms reply <> None);
      (* Every attempt saw the same empty queue, so every hint is the same;
         the jitter still varies by attempt. *)
      let expected =
        List.map
          (fun n ->
            Client.delay_after backoff ~attempt:n ~retry_after_ms:(Some hint))
          [ 0; 1 ]
      in
      Alcotest.(check (list (float 1e-9))) "slept the hinted schedule" expected
        (List.rev !slept))

(* --- daemon socket faults --- *)

let test_dropped_connection_retry () =
  with_gated_daemon (fun ~addr ~sched:_ ~hold:_ ~release:_ ->
      with_registry (fun () ->
          Inject.enable ();
          (* Hit 0 is the hello banner of the first connection; hit 1 is
             its first reply — dropped.  The retry's fresh connection takes
             hits 2 and 3 untouched. *)
          Inject.arm Inject.serve_drop (Inject.Times { skip = 1; count = 1 });
          (match
             Serve.Client.with_connection ~addr (fun c ->
                 Serve.Client.request c Protocol.Hello)
           with
          | exception Errors.Error (Errors.Connection_closed _) -> ()
          | exception e ->
              Alcotest.fail ("expected Connection_closed, got " ^ Printexc.to_string e)
          | _ -> Alcotest.fail "dropped reply must raise");
          Alcotest.(check int) "one drop fired" 1 (Inject.fired Inject.serve_drop);
          (* The same fault, healed by the retry loop. *)
          Inject.arm Inject.serve_drop (Inject.Times { skip = 1; count = 1 });
          let slept = ref 0 in
          let reply =
            Client.retry_request
              ~sleep:(fun _ -> incr slept)
              ~addr Protocol.Hello
          in
          Alcotest.(check bool) "retry recovered" true
            (reply.Protocol.status = Protocol.Ok);
          Alcotest.(check int) "one backoff sleep" 1 !slept))

let test_partial_write_detected () =
  with_gated_daemon (fun ~addr ~sched:_ ~hold:_ ~release:_ ->
      with_registry (fun () ->
          Inject.enable ();
          Inject.arm Inject.serve_partial (Inject.Times { skip = 1; count = 1 });
          (match
             Serve.Client.with_connection ~addr (fun c ->
                 Serve.Client.request c Protocol.Hello)
           with
          | exception Failure _ ->
              (* Half a JSON line is a protocol violation, loudly. *)
              ()
          | exception Errors.Error (Errors.Connection_closed _) ->
              (* ... unless the runtime saw the shutdown before the bytes. *)
              ()
          | exception e ->
              Alcotest.fail ("expected a protocol failure, got " ^ Printexc.to_string e)
          | _ -> Alcotest.fail "truncated reply must not parse");
          Alcotest.(check int) "one partial write fired" 1
            (Inject.fired Inject.serve_partial);
          (* The daemon survives the injected connection death. *)
          let reply =
            Serve.Client.with_connection ~addr (fun c ->
                Serve.Client.request c Protocol.Hello)
          in
          Alcotest.(check bool) "daemon alive afterwards" true
            (reply.Protocol.status = Protocol.Ok)))

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "registry: plans, determinism, isolation" `Quick
          test_registry_plans;
        Alcotest.test_case "registry: catalogue lookup" `Quick
          test_env_spec_arming;
        Alcotest.test_case "bit-identity: enabled-unarmed and disabled" `Quick
          test_bit_identity_when_not_firing;
        Alcotest.test_case "recovery: forced singular pivot (ua741)" `Quick
          test_singular_pivot_recovery_ua741;
        Alcotest.test_case "recovery: NaN-poisoned evaluation point" `Quick
          test_nan_poisoning_recovery;
        Alcotest.test_case "service: injected exception is structured" `Quick
          test_injected_exception_is_structured;
        Alcotest.test_case "service: bad spec is typed" `Quick
          test_bad_spec_is_typed;
        Alcotest.test_case "client: backoff schedule deterministic, capped"
          `Quick test_backoff_schedule;
        Alcotest.test_case "client: Busy retries until admitted" `Quick
          test_busy_retry_until_admitted;
        Alcotest.test_case "client: Busy give-up returns the reply" `Quick
          test_busy_giveup_is_structured;
        Alcotest.test_case "daemon: dropped connection retried" `Quick
          test_dropped_connection_retry;
        Alcotest.test_case "daemon: partial write detected" `Quick
          test_partial_write_detected;
      ] );
  ]
