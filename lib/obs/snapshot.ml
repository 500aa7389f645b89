(* Both lists are in registration order, which is the order of the JSON
   keys and of the --stats table. *)
type t = {
  counters : (string * int) list;
  histograms : (string * (int * int) list) list;
}

let capture () =
  { counters = Metrics.all (); histograms = Metrics.all_histograms () }

let value t c = List.assoc (Metrics.name c) t.counters
let buckets t h = List.assoc (Metrics.histogram_name h) t.histograms

let is_zero t =
  List.for_all (fun (_, v) -> v = 0) t.counters
  && List.for_all (fun (_, b) -> b = []) t.histograms

let factorizations t = value t Metrics.lu_refactor + value t Metrics.lu_factor

let num n = Json.Num (float_of_int n)

let to_json t =
  let bucket (le, n) = Json.Obj [ ("le", num le); ("count", num n) ] in
  Json.Obj
    (List.map (fun (k, v) -> (k, num v)) t.counters
    @ List.map (fun (k, b) -> (k, Json.Arr (List.map bucket b))) t.histograms)

let to_string t = Json.to_string (to_json t)

(* The registry names the fields: a dump missing a registered counter or
   histogram is rejected, and keys the registry does not know are ignored. *)
let of_json j =
  let field k =
    match Json.member k j with
    | Some v -> v
    | None -> failwith ("Snapshot.of_json: missing field " ^ k)
  in
  let bucket b =
    match (Json.member "le" b, Json.member "count" b) with
    | Some le, Some n -> (Json.to_int le, Json.to_int n)
    | _ -> failwith "Snapshot.of_json: malformed histogram bucket"
  in
  {
    counters = List.map (fun (k, _) -> (k, Json.to_int (field k))) (Metrics.all ());
    histograms =
      List.map
        (fun (k, _) -> (k, List.map bucket (Json.to_list (field k))))
        (Metrics.all_histograms ());
  }

let of_string s = of_json (Json.parse s)

let to_table t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  line "%-26s %8s\n" "counter" "value";
  List.iter (fun (k, v) -> line "%-26s %8d\n" k v) t.counters;
  line "%-26s %8d   (refactor + scratch)\n" "lu.evaluations" (factorizations t);
  List.iter
    (fun (k, b) ->
      if b <> [] then begin
        line "%s:\n" k;
        List.iter (fun (le, n) -> line "  <= %-6d points %8d batches\n" le n) b
      end)
    t.histograms;
  Buffer.contents buf
