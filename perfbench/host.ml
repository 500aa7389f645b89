(* Clock, /proc readers and small statistics helpers. *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words line =
  String.map (function '\t' -> ' ' | c -> c) line
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

(* Aggregate CPU ticks from the first line of /proc/stat:
   [(steal, all)], where [all] sums user..steal (guest time is already
   inside user and nice). *)
let cpu_ticks () =
  match read_file "/proc/stat" |> String.split_on_char '\n' with
  | first :: _ -> (
      match words first with
      | "cpu" :: fields ->
          let v = List.map int_of_string (List.filteri (fun i _ -> i < 8) fields) in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] -> (0, 0)

(* Share of all CPU ticks between two [cpu_ticks] readings that the
   hypervisor stole. *)
let steal_share (s0, a0) (s1, a1) =
  if a1 > a0 then float_of_int (s1 - s0) /. float_of_int (a1 - a0) else 0.

(* [VmHWM] (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  match words (String.sub line 6 (String.length line - 6)) with
  | kb :: _ -> float_of_string kb /. 1024.
  | [] -> failwith "VmHWM: no value"

(* Fields of /proc/PID/stat after the parenthesised command name. *)
let stat_fields pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  words (String.trim (String.sub s (i + 1) (String.length s - i - 1)))

(* A live process: present in /proc and not a zombie. *)
let alive pid =
  match stat_fields pid with
  | state :: _ -> state <> "Z" && state <> "X"
  | [] -> false
  | exception _ -> false

let children pid =
  Array.fold_left
    (fun acc name ->
      match int_of_string_opt name with
      | None -> acc
      | Some p -> (
          match stat_fields p with
          | _ :: ppid :: _ when int_of_string ppid = pid -> p :: acc
          | _ | (exception _) -> acc))
    [] (Sys.readdir "/proc")
  |> List.sort compare

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- statistics --- *)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail percentile to report, as [(q, value, samples beyond it)]:
   the nearest-rank p99 when at least ten samples lie beyond it, else the
   highest percentile that has ten beyond it (the maximum when there are
   ten samples or fewer). *)
let tail xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = if n >= 1000 then ((99 * n) + 99) / 100 else if n > 10 then n - 10 else n in
  (float_of_int rank /. float_of_int n, a.(rank - 1), n - rank)
