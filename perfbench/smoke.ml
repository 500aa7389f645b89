(* Tiny-size run of every workload, untraced and traced — the ones
   BENCHMARK.json lists and [reference], which it leaves out as unsteady
   but which stays runnable by hand.  Each run must exit 0 and end with a
   result line that has exactly the keys the benchmark contract names, zero
   failures, and exactly the metrics (names and units) BENCHMARK.json lists
   for that mode.

   smoke.exe PERFBENCH_EXE SYMREF_EXE BENCHMARK_JSON *)

module Json = Symref_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench smoke: " ^ m); exit 1) fmt
let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let field k j =
  match Json.member k j with Some v -> v | None -> fail "no %S in %s" k (Json.to_string j)

let declared section bench =
  List.map
    (fun m -> (Json.to_str (field "name" m), Json.to_str (field "unit" m)))
    (Json.to_list (field section bench))

let last_line perfbench symref workload trace =
  let args =
    [ "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace"; trace; "--size"; "tiny";
      "--symref"; symref ]
  in
  let ic = Unix.open_process_args_in perfbench (Array.of_list (perfbench :: args)) in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s --trace %s did not exit 0:\n%s" workload trace out);
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | last :: _ -> last
  | [] -> fail "%s --trace %s printed nothing" workload trace

let () =
  if Array.length Sys.argv <> 4 then
    fail "usage: smoke.exe PERFBENCH_EXE SYMREF_EXE BENCHMARK_JSON";
  let perfbench = absolute Sys.argv.(1) and symref = absolute Sys.argv.(2) in
  let bench = Json.parse_file Sys.argv.(3) in
  let listed =
    List.map (fun w -> Json.to_str (field "name" w)) (Json.to_list (field "workloads" bench))
  in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, section) ->
          let result = Json.parse (last_line perfbench symref workload trace) in
          let keys =
            match result with Json.Obj kvs -> List.sort compare (List.map fst kvs) | _ -> []
          in
          if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
            fail "%s: result keys %s" workload (String.concat "," keys);
          let check ok what = if not ok then fail "%s --trace %s: %s" workload trace what in
          check (field "correct" result = Json.Bool true) "not correct";
          check (Json.to_int (field "failed" result) = 0) "failures";
          check (Json.to_int (field "attempted" result) >= 1) "nothing attempted";
          let got =
            match field "metrics" result with
            | Json.Obj kvs ->
                List.map
                  (fun (name, v) ->
                    (match field "value" v with
                    | Json.Num x when Float.is_finite x -> ()
                    | _ -> fail "%s: %s has no finite value" workload name);
                    (name, Json.to_str (field "unit" v)))
                  kvs
            | _ -> fail "%s: metrics is not an object" workload
          in
          if List.sort compare got <> List.sort compare (declared section bench) then
            fail "%s --trace %s: metrics differ from BENCHMARK.json's %s" workload trace section)
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    ("reference" :: List.filter (( <> ) "reference") listed);
  print_endline "perfbench smoke: ok"
