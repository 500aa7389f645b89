let point k i =
  if k < 1 then invalid_arg "Unit_circle.point: k must be >= 1";
  let i = ((i mod k) + k) mod k in
  (* Exact values on the axes avoid spurious 1e-16 components that would
     otherwise leak into every interpolated coefficient. *)
  let q = 4 * i in
  if q mod k = 0 then
    match q / k with
    | 0 -> Complex.one
    | 1 -> { Complex.re = 0.; im = 1. }
    | 2 -> { Complex.re = -1.; im = 0. }
    | _ -> { Complex.re = 0.; im = -1. }
  else
    let t = 2. *. Float.pi *. float_of_int i /. float_of_int k in
    { Complex.re = Float.cos t; im = Float.sin t }

let points k =
  if k < 1 then invalid_arg "Unit_circle.points: k must be >= 1";
  Array.init k (point k)
