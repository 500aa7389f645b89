(* A [symref fleet] process tree, driven from outside: spawn it, wait for
   the front to answer a Hello, talk NDJSON over raw connections, and tear
   it down with every process reaped and every socket gone. *)

module Protocol = Symref_serve.Protocol
module Transport = Symref_serve.Transport
module Json = Symref_obs.Json

type t = {
  pid : int;
  dir : string;
  front : string;  (** the front's Unix socket *)
  mutable workers : int list;  (** worker pids, once {!find_workers} ran *)
}

(* Paths stay relative to the working directory: Unix socket paths are
   limited to 108 bytes, and the checkout may sit deep in the tree. *)
let worker_socket dir i = Filename.concat dir (Printf.sprintf "worker-%d.sock" i)

(* Workers in a fleet at its defaults, and the connections the load
   generator opens: one per core of the 2-vCPU machine. *)
let size = 2
let worker_addrs dir = List.init size (fun i -> Transport.Unix_sock (worker_socket dir i))
let front_addr t = Transport.Unix_sock t.front

(* --- raw line connections: no parsing on the load generator's side --- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn addr =
  let fd = Transport.connect addr in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  match input_line ic with
  | _banner -> { fd; ic; oc }
  | exception e ->
      Unix.close fd;
      raise e

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let exchange c line =
  output_string c.oc line;
  flush c.oc;
  input_line c.ic

let request_line req = Json.to_string (Protocol.request_to_json req) ^ "\n"

let one_shot addr req =
  let c = open_conn addr in
  Fun.protect ~finally:(fun () -> close_conn c) (fun () -> exchange c (request_line req))

let answers_hello addr =
  match Protocol.reply_of_json (Json.parse (one_shot addr Protocol.Hello)) with
  | r -> r.Protocol.status = Protocol.Ok
  | exception _ -> false

(* Fleets not yet stopped, so a failing run can still reap them. *)
let live : t list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Spawn [symref fleet] at its defaults (two workers, hedging on) under a
   fresh state directory and return once the front answers a Hello.  The
   front's stdout (where [--stats] prints its counter table on exit) goes
   to [dir/front.out]. *)
let spawn ~symref ~dir ~stats =
  Host.rm_rf dir;
  Host.mkdir_p dir;
  let front = Filename.concat dir "front.sock" in
  let file name =
    Unix.openfile (Filename.concat dir name)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let out = file "front.out" and err = file "front.err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    Array.of_list
      ([ symref; "fleet"; "--listen=" ^ front; "--dir=" ^ dir ]
      @ if stats then [ "--stats" ] else [])
  in
  let pid = Unix.create_process symref args null out err in
  List.iter Unix.close [ out; err; null ];
  let t = { pid; dir; front; workers = [] } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    if answers_hello (front_addr t) then ()
    else if exited pid then
      failwith
        ("symref fleet exited before answering: "
        ^ Host.read_file (Filename.concat dir "front.err"))
    else if Unix.gettimeofday () > deadline then failwith "symref fleet did not answer within 60 s"
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  t

(* Record the worker pids (the front's children), once the front answers. *)
let find_workers t = t.workers <- Host.children t.pid

(* Peak RSS of the front plus its workers, read while they run. *)
let peak_rss_mb t = List.fold_left (fun acc p -> acc +. Host.peak_rss_mb p) 0. (t.pid :: t.workers)

let stats t =
  Protocol.reply_of_json (Json.parse (one_shot (front_addr t) Protocol.Stats))

(* The [--stats] table the front printed on exit: [(counter, value)]. *)
let exit_counters t =
  List.filter_map
    (fun line ->
      match Host.words line with
      | [ name; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char '\n' (Host.read_file (Filename.concat t.dir "front.out")))

let rec reap pid ~deadline =
  if exited pid then ()
  else if Unix.gettimeofday () > deadline then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  end
  else begin
    Unix.sleepf 0.005;
    reap pid ~deadline
  end

(* Protocol shutdown to the front, which drains and reaps its workers.
   Returns the leftovers — processes still alive and sockets still on
   disk — after killing any such process.  [keep] leaves the state
   directory in place (the caller still needs [front.out]). *)
let stop ?(keep = false) t =
  live := List.filter (fun f -> f != t) !live;
  (try ignore (one_shot (front_addr t) Protocol.Shutdown) with _ -> ());
  reap t.pid ~deadline:(Unix.gettimeofday () +. 30.);
  let stray = List.filter Host.alive t.workers in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) stray;
  let sockets =
    List.filter Sys.file_exists (t.front :: List.init size (worker_socket t.dir))
  in
  if not keep then Host.rm_rf t.dir;
  List.map (Printf.sprintf "process %d") stray @ List.map (Printf.sprintf "socket %s") sockets

let stop_all () = List.iter (fun t -> ignore (stop t)) !live
