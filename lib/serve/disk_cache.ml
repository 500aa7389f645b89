(* Content-addressed on-disk result cache.

   One file per entry under a single directory; the file name is the cache
   key (already an MD5 hex digest, so filename-safe by construction).  The
   format is a one-line checksum header followed by the raw payload:

     symref-cache 2 <md5-hex-of-payload> <payload-byte-length>\n
     <payload bytes>

   Writers stage into a dot-prefixed temp file of their own and
   [Unix.rename] it into place, so a reader never observes a half-written
   entry under the final name; readers verify the magic, the length and
   the digest and treat any mismatch — truncation, corruption, a foreign
   file — as a miss, never a failure.  That makes the directory safe to
   share read-mostly between N daemon processes and their worker domains:
   the worst a concurrent writer can do is win the rename race with an
   identical payload. *)

module Metrics = Symref_obs.Metrics

let magic = "symref-cache"
(* Version 2: keys hash the exact canonical netlist.  An entry written
   under version 1's six-digit keys may answer for a different circuit,
   so it reads as a miss. *)
let format_version = 2

type t = { dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let tmp_prefix = ".tmp."

(* A writer that died between staging and rename leaves its temp file
   behind forever — nothing else ever touches that name again (it embeds
   the dead pid).  Opening the cache is the natural janitor moment: any
   [.tmp.*] file present then is either such an orphan or the in-flight
   staging of a concurrent process — and losing the latter's rename race
   is already a handled (and harmless) case in [store], so scrubbing is
   safe either way. *)
let scrub_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
      Array.iter
        (fun f ->
          if String.starts_with ~prefix:tmp_prefix f then
            match Sys.remove (Filename.concat dir f) with
            | () -> Metrics.incr Metrics.serve_disk_cache_scrubbed
            | exception Sys_error _ -> ())
        files

let create ~dir =
  mkdir_p dir;
  scrub_tmp dir;
  { dir }

let dir t = t.dir

(* Keys are MD5 hex digests; refuse anything that could escape the
   directory or collide with a temp file. *)
let valid_key key =
  String.length key > 0
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       key

let entry_path t key = Filename.concat t.dir key

let header_of payload =
  Printf.sprintf "%s %d %s %d\n" magic format_version
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

let parse_header line =
  match String.split_on_char ' ' line with
  | [ m; v; digest; len ]
    when m = magic && int_of_string_opt v = Some format_version ->
      Option.map (fun n -> (digest, n)) (int_of_string_opt len)
  | _ -> None

let find t ~key =
  if not (valid_key key) then None
  else
    let path = entry_path t key in
    let entry =
      match In_channel.open_bin path with
      | exception Sys_error _ -> `Absent
      | ic ->
          Fun.protect
            ~finally:(fun () -> In_channel.close ic)
            (fun () ->
              match In_channel.input_line ic with
              | None -> `Corrupt
              | Some header -> (
                  match parse_header header with
                  | None -> `Corrupt
                  | Some (digest, len) -> (
                      match In_channel.really_input_string ic len with
                      | None -> `Corrupt (* truncated *)
                      | Some payload ->
                          if
                            In_channel.input_char ic = None
                            && Digest.to_hex (Digest.string payload) = digest
                          then `Hit payload
                          else `Corrupt)))
    in
    match entry with
    | `Hit payload ->
        Metrics.incr Metrics.serve_disk_cache_hits;
        Some payload
    | `Absent ->
        Metrics.incr Metrics.serve_disk_cache_misses;
        None
    | `Corrupt ->
        (* A truncated or corrupted entry is a miss, never fatal; leave the
           file for the next [store] to atomically replace. *)
        Metrics.incr Metrics.serve_disk_cache_misses;
        Metrics.incr Metrics.serve_disk_cache_corrupt;
        None

(* Numbers every staging file this process opens. *)
let staged = Atomic.make 0

let store t ~key payload =
  if valid_key key then begin
    let path = entry_path t key in
    (* The temp name embeds the pid, a process-wide count and the key, so
       no two writers share a staging file: not two processes, and not two
       domains of one daemon that store the same key at once (with a shared
       name, one could truncate the file the other was about to rename into
       place).  The final rename is atomic within the directory. *)
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf "%s%d.%d.%s" tmp_prefix (Unix.getpid ())
           (Atomic.fetch_and_add staged 1) key)
    in
    match Out_channel.open_bin tmp with
    | exception Sys_error _ -> ()
    | oc ->
        let written =
          match
            Fun.protect
              ~finally:(fun () -> Out_channel.close oc)
              (fun () ->
                Out_channel.output_string oc (header_of payload);
                Out_channel.output_string oc payload)
          with
          | () -> true
          | exception Sys_error _ -> false
        in
        if written then (
          try
            Unix.rename tmp path;
            Metrics.incr Metrics.serve_disk_cache_writes
          with Unix.Unix_error _ -> (
            try Sys.remove tmp with Sys_error _ -> ()))
        else (try Sys.remove tmp with Sys_error _ -> ())
  end

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun acc f -> if valid_key f then acc + 1 else acc)
        0 files

let bytes t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun acc f ->
          if valid_key f then
            match (Unix.stat (Filename.concat t.dir f)).Unix.st_size with
            | size -> acc + size
            | exception Unix.Unix_error _ -> acc
          else acc)
        0 files

let stats_json t =
  Symref_obs.Json.Obj
    [
      ("dir", Symref_obs.Json.Str t.dir);
      ("entries", Symref_obs.Json.Num (float_of_int (entries t)));
      ("bytes", Symref_obs.Json.Num (float_of_int (bytes t)));
    ]
