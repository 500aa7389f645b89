(* Reply checks.  Every check returns [Ok ()] or [Error reason]; the
   caller counts each error as one failed operation. *)

module Protocol = Symref_serve.Protocol
module Json = Symref_obs.Json
module Ef = Symref_numeric.Extfloat

let ( let* ) = Result.bind

let parse_reply line =
  match Protocol.reply_of_json (Json.parse line) with
  | r -> Ok r
  | exception Failure m -> Error ("unreadable reply: " ^ m)
  | exception End_of_file -> Error "no reply"

let payload (r : Protocol.reply) = Json.to_string r.Protocol.body

let ok_healthy (r : Protocol.reply) =
  if r.Protocol.status <> Protocol.Ok then
    Error
      (Printf.sprintf "status %s: %s"
         (Protocol.status_to_string r.Protocol.status)
         (Option.value ~default:"" (Protocol.error_message r)))
  else
    let health = Json.member "health" r.Protocol.body in
    match Option.bind health (Json.member "healthy") with
    | Some (Json.Bool true) -> Ok ()
    | _ ->
        Error
          ("health.healthy is not true: "
          ^ Option.fold ~none:"no health object" ~some:Json.to_string health)

(* "d.ddddde+kk" (Extfloat.to_string) back into an extended float; the
   exponent may lie far outside the double range. *)
let ef_of_string s =
  match String.index_opt s 'e' with
  | Some i ->
      Ef.of_decimal
        (float_of_string (String.sub s 0 i))
        (int_of_string (String.sub s (i + 1) (String.length s - i - 1)))
  | None -> failwith ("not an extended float: " ^ s)

(* Every denominator ratio p_i/p_0 against the ladder's cancellation-free
   closed form, which shares nothing with the interpolation path. *)
let ladder_oracle exact (r : Protocol.reply) =
  let* den =
    match Json.member "den" r.Protocol.body with
    | Some (Json.Arr xs) -> (
        try Ok (Array.of_list (List.map (fun x -> ef_of_string (Json.to_str x)) xs))
        with Failure m -> Error m)
    | _ -> Error "no den array"
  in
  if Array.length den <> Array.length exact then
    Error
      (Printf.sprintf "den has %d coefficients, the closed form %d" (Array.length den)
         (Array.length exact))
  else
    let bad = ref None in
    Array.iteri
      (fun i e ->
        let ratio = Ef.div den.(i) den.(0) in
        if !bad = None && not (Ef.approx_equal ~rel:1e-4 ratio e) then
          bad :=
            Some (Printf.sprintf "p%d/p0 = %s, exact %s" i (Ef.to_string ratio) (Ef.to_string e)))
      exact;
    match !bad with None -> Ok () | Some m -> Error m

(* The checks every computed reply of a job list gets. *)
let computed (job : Gen.job) (r : Protocol.reply) =
  let* () = ok_healthy r in
  match job.Gen.exact with Some exact -> ladder_oracle exact r | None -> Ok ()
