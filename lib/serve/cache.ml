(* Content-addressed LRU result cache with a byte budget.

   Classic design: a hash table from key to an intrusive doubly-linked node
   ordered by recency (head = most recent).  Everything under one mutex —
   lookups are microseconds against jobs that cost milliseconds, so finer
   locking would buy nothing. *)

module Json = Symref_obs.Json
module Metrics = Symref_obs.Metrics

type node = {
  key : string;
  payload : string;
  mutable prev : node option; (* towards the head (more recent) *)
  mutable next : node option; (* towards the tail (less recent) *)
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  max_bytes : int;
  mutable head : node option;
  mutable tail : node option;
  mutable used_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(max_bytes = 64 * 1024 * 1024) () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    max_bytes;
    head = None;
    tail = None;
    used_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let size_of n = String.length n.key + String.length n.payload

(* [serve.cache_bytes] mirrors [used_bytes] with signed deltas: every
   mutation below pairs its [used_bytes] update with the same delta here,
   so the counter reads as a live gauge in --stats and snapshots. *)
let track_bytes delta = Metrics.add Metrics.serve_cache_bytes delta

(* --- recency list primitives (caller holds the lock) --- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_tail t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.used_bytes <- t.used_bytes - size_of n;
      track_bytes (-size_of n);
      t.evictions <- t.evictions + 1;
      Metrics.incr Metrics.serve_cache_evictions

(* --- public API --- *)

let find t ~key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some n ->
      unlink t n;
      push_front t n;
      t.hits <- t.hits + 1;
      Metrics.incr Metrics.serve_cache_hits;
      Some n.payload
  | None ->
      t.misses <- t.misses + 1;
      Metrics.incr Metrics.serve_cache_misses;
      None

let add t ~key payload =
  Mutex.protect t.lock @@ fun () ->
  (match Hashtbl.find_opt t.table key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.table key;
      t.used_bytes <- t.used_bytes - size_of old;
      track_bytes (-size_of old)
  | None -> ());
  let n = { key; payload; prev = None; next = None } in
  if size_of n <= t.max_bytes then begin
    Hashtbl.replace t.table key n;
    push_front t n;
    t.used_bytes <- t.used_bytes + size_of n;
    track_bytes (size_of n);
    while t.used_bytes > t.max_bytes do
      drop_tail t
    done
  end

let hits t = Mutex.protect t.lock (fun () -> t.hits)
let misses t = Mutex.protect t.lock (fun () -> t.misses)
let evictions t = Mutex.protect t.lock (fun () -> t.evictions)
let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let bytes t = Mutex.protect t.lock (fun () -> t.used_bytes)

let clear t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  track_bytes (-t.used_bytes);
  t.used_bytes <- 0

let stats_json t =
  Mutex.protect t.lock @@ fun () ->
  let i k v = (k, Json.Num (float_of_int v)) in
  Json.Obj
    [
      i "hits" t.hits;
      i "misses" t.misses;
      i "evictions" t.evictions;
      i "entries" (Hashtbl.length t.table);
      i "bytes" t.used_bytes;
      i "max_bytes" t.max_bytes;
    ]
