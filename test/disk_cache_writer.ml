(* The writer half of the two-process disk-cache test: a separate process
   with its own Disk_cache handle on the shared directory.

     disk_cache_writer.exe DIR KEY PAYLOAD *)

let () =
  match Sys.argv with
  | [| _; dir; key; payload |] ->
      let dc = Symref_serve.Disk_cache.create ~dir in
      Symref_serve.Disk_cache.store dc ~key payload
  | _ ->
      prerr_endline "usage: disk_cache_writer.exe DIR KEY PAYLOAD";
      exit 2
