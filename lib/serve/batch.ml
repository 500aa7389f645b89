module Json = Symref_obs.Json

type outcome = { file : string; reply : Protocol.reply }

type report = {
  directory : string;
  files : int;
  succeeded : int;
  failed : int;
  timed_out : int;
  cached : int;
  outcomes : outcome list;
  cache_stats : Json.t;
}

let extensions = [ ".sp"; ".cir"; ".net"; ".spi"; ".ckt" ]

let netlist_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         List.exists (fun e -> Filename.check_suffix f e) extensions)
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let run ?config ?(template = Protocol.default_job) dir =
  let files = netlist_files dir in
  let service = Service.create ?config () in
  let sched = Service.scheduler service in
  let submit file =
    let job =
      { template with Protocol.netlist = `Path file; id = Some file }
    in
    (* Backpressure, not rejection: a sweep owns its queue, so when the
       scheduler is full we wait for a slot rather than drop the file. *)
    let rec admitted () =
      match Service.submit service job with
      | `Ticket ticket -> ticket
      | `Rejected _ ->
          Scheduler.wait_until_below sched (Scheduler.workers sched);
          admitted ()
    in
    (file, admitted ())
  in
  let tickets = List.map submit files in
  let outcomes =
    List.map
      (fun (file, ticket) ->
        let reply =
          match Scheduler.await ticket with
          | Ok reply -> reply
          | Error e ->
              Protocol.error ~id:(Some file) ~kind:"internal"
                (Printexc.to_string e)
        in
        { file; reply })
      tickets
  in
  let cache_stats = Cache.stats_json (Service.cache service) in
  Service.shutdown service;
  let count p = List.length (List.filter p outcomes) in
  {
    directory = dir;
    files = List.length files;
    succeeded = count (fun o -> o.reply.Protocol.status = Protocol.Ok);
    failed = count (fun o -> o.reply.Protocol.status <> Protocol.Ok);
    timed_out = count (fun o -> o.reply.Protocol.status = Protocol.Timeout);
    cached = count (fun o -> o.reply.Protocol.cached);
    outcomes;
    cache_stats;
  }

let report_to_json r =
  let inum i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("directory", Json.Str r.directory);
      ("files", inum r.files);
      ("succeeded", inum r.succeeded);
      ("failed", inum r.failed);
      ("timed_out", inum r.timed_out);
      ("cached", inum r.cached);
      ("cache", r.cache_stats);
      ( "results",
        Json.Arr
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("file", Json.Str o.file);
                   ("reply", Protocol.reply_to_json o.reply);
                 ])
             r.outcomes) );
    ]
