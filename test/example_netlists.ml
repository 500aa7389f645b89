(* The example netlists, found from the test directory (where [dune runtest]
   runs the suite) or from the repository root (where [dune exec] runs a
   single group, as CI does). *)
let dir () =
  match List.find_opt Sys.file_exists [ "../examples/netlists"; "examples/netlists" ] with
  | Some d -> d
  | None -> failwith "examples/netlists not found from the working directory"

let path name = Filename.concat (dir ()) name
