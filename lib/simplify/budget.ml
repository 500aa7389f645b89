(* Error budgets for the three-stage simplification pipeline.

   The user states one magnitude/phase tolerance for the whole run; the
   pipeline spends it in three instalments — SBG prunes the circuit, SDG
   truncates coefficients, SAG drops function-level terms — so the stage
   shares must sum to at most one or the certificate could never close. *)

type split = { sbg : float; sdg : float; sag : float }

let default_split = { sbg = 0.4; sdg = 0.35; sag = 0.25 }

type t = { total_db : float; total_deg : float; split : split }

let check_share what s =
  if not (Float.is_finite s) || s < 0. then
    invalid_arg (Printf.sprintf "Budget: %s share must be finite and >= 0" what)

let v ?(split = default_split) ~db ~deg () =
  if not (Float.is_finite db && db > 0.) then
    invalid_arg "Budget: the dB budget must be finite and > 0";
  if not (Float.is_finite deg && deg > 0.) then
    invalid_arg "Budget: the degree budget must be finite and > 0";
  check_share "sbg" split.sbg;
  check_share "sdg" split.sdg;
  check_share "sag" split.sag;
  if split.sbg +. split.sdg +. split.sag > 1. +. 1e-9 then
    invalid_arg "Budget: stage shares must sum to at most 1";
  { total_db = db; total_deg = deg; split }

let sbg_db t = t.total_db *. t.split.sbg
let sbg_deg t = t.total_deg *. t.split.sbg
let sdg_db t = t.total_db *. t.split.sdg
let sdg_deg t = t.total_deg *. t.split.sdg
let sag_db t = t.total_db *. t.split.sag
let sag_deg t = t.total_deg *. t.split.sag

(* A (dB, degree) allowance translated to the relative-magnitude epsilon the
   term-dropping stages consume: a relative perturbation of eps moves the
   magnitude by at most 20 log10(1 + eps) dB and the phase by at most
   arcsin(eps) — use the tighter of the two bounds, linearised on the safe
   side for the phase (sin x <= x). *)
let epsilon ~db ~deg =
  let from_db = Float.pow 10. (db /. 20.) -. 1. in
  let from_deg = Float.sin (deg *. Float.pi /. 180.) in
  Float.max 0. (Float.min from_db from_deg)
