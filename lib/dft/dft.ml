(* [w.(index k n)] is [Unit_circle.point k n] for any [n] in [(-k, k)]:
   the table holds the k roots once, and a negative [n] (an inverse
   transform's [-i*j mod k]) wraps as [Unit_circle.point] wraps it. *)
let index k n = if n < 0 then n + k else n

let transform ~sign (x : Complex.t array) =
  let k = Array.length x in
  if k = 0 then [||]
  else
    (* w^(sign * i * j); the root table keeps the twiddle factors exact on
       the axes. *)
    let w = Unit_circle.points k in
    Array.init k (fun i ->
        let acc = ref Complex.zero in
        for j = 0 to k - 1 do
          acc := Complex.add !acc (Complex.mul x.(j) w.(index k (sign * i * j mod k)))
        done;
        !acc)

let forward x = transform ~sign:1 x

let inverse x =
  let k = Array.length x in
  if k = 0 then [||]
  else
    let inv_k = 1. /. float_of_int k in
    Array.map
      (fun z -> { Complex.re = z.Complex.re *. inv_k; im = z.Complex.im *. inv_k })
      (transform ~sign:(-1) x)

let complete_real_spectrum k half =
  if Array.length half <> (k / 2) + 1 then
    invalid_arg "Dft.complete_real_spectrum: need k/2 + 1 values";
  Array.init k (fun i -> if i <= k / 2 then half.(i) else Complex.conj half.(k - i))

let inverse_real_spectrum k half =
  if k < 1 then invalid_arg "Dft.inverse_real_spectrum: k must be >= 1";
  if Array.length half <> (k / 2) + 1 then
    invalid_arg "Dft.inverse_real_spectrum: need k/2 + 1 values";
  let inv_k = 1. /. float_of_int k in
  (* Highest index whose conjugate partner k-j is a distinct point; the
     self-conjugate points (j = 0 and, for even k, j = k/2) contribute on
     their own and are the only carriers of imaginary residue. *)
  let jmax = (k - 1) / 2 in
  let w = Unit_circle.points k in
  Array.init k (fun i ->
      let re = ref half.(0).Complex.re and im = ref half.(0).Complex.im in
      for j = 1 to jmax do
        (* The pair x_j w^(-ij) + conj(x_j) w^(ij) is 2 Re (x_j w^(-ij))
           exactly — one twiddle lookup and the real half of one complex
           multiply ([Complex.mul]'s re, written out), where the full
           transform pays two of each and cancels only approximately. *)
        let x = half.(j) and t = w.(index k (-i * j mod k)) in
        re := !re +. (2. *. ((x.Complex.re *. t.Complex.re) -. (x.Complex.im *. t.Complex.im)))
      done;
      if k land 1 = 0 then begin
        (* w^(-i*k/2) = (-1)^i exactly. *)
        let m = half.(k / 2) in
        if i land 1 = 0 then begin
          re := !re +. m.Complex.re;
          im := !im +. m.Complex.im
        end
        else begin
          re := !re -. m.Complex.re;
          im := !im -. m.Complex.im
        end
      end;
      { Complex.re = !re *. inv_k; im = !im *. inv_k })
