let suffixes =
  [
    ("meg", 1e6);
    ("t", 1e12);
    ("g", 1e9);
    ("k", 1e3);
    ("m", 1e-3);
    ("u", 1e-6);
    ("n", 1e-9);
    ("p", 1e-12);
    ("f", 1e-15);
  ]

(* [suffixes] entry whose name starts [s] at [i], "meg" first (otherwise
   "m" would shadow it). *)
let suffix_at s i =
  let n = String.length s in
  let rec matches suf k =
    k = String.length suf || (i + k < n && s.[i + k] = suf.[k] && matches suf (k + 1))
  in
  let rec find = function
    | [] -> None
    | (suf, m) :: rest -> if matches suf 0 then Some m else find rest
  in
  find suffixes

let is_upper c = c >= 'A' && c <= 'Z'

(* [String.trim] returns a field with nothing to trim as is, and a field
   with no upper-case letter is not copied to lowercase it. *)
let parse s =
  let s = String.trim s in
  let s = if String.exists is_upper s then String.lowercase_ascii s else s in
  if s = "" then None
  else begin
    (* Longest numeric prefix. *)
    let n = String.length s in
    let is_num_char i c =
      match c with
      | '0' .. '9' | '.' | '+' | '-' -> true
      | 'e' ->
          (* exponent only if followed by digit or sign+digit *)
          i + 1 < n
          && (match s.[i + 1] with
             | '0' .. '9' -> true
             | '+' | '-' -> i + 2 < n && s.[i + 2] >= '0' && s.[i + 2] <= '9'
             | _ -> false)
      | _ -> false
    in
    let rec span i =
      if i < n && is_num_char i s.[i] then
        if s.[i] = 'e' then
          (* consume exponent: e[+-]?digits *)
          let j = if s.[i + 1] = '+' || s.[i + 1] = '-' then i + 2 else i + 1 in
          let rec digits j = if j < n && s.[j] >= '0' && s.[j] <= '9' then digits (j + 1) else j in
          digits j
        else span (i + 1)
      else i
    in
    let stop = span 0 in
    if stop = 0 then None
    else
      match float_of_string_opt (if stop = n then s else String.sub s 0 stop) with
      | None -> None
      | Some v ->
          let rec letters i = i = n || (s.[i] >= 'a' && s.[i] <= 'z' && letters (i + 1)) in
          let mult =
            if stop = n then Some 1.
            else
              match suffix_at s stop with
              | Some m -> Some m
              | None ->
                  (* Unknown trailing letters with no suffix: SPICE ignores
                     pure unit annotations like "ohm", "hz", "v", "a", "s". *)
                  if letters stop then Some 1. else None
          in
          Option.map (fun m -> v *. m) mult
  end

let parse_exn s =
  match parse s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Units.parse: cannot read %S as a number" s)

let format_si v =
  if v = 0. then "0"
  else
    let a = Float.abs v in
    let pick =
      [ (1e12, "t"); (1e9, "g"); (1e6, "meg"); (1e3, "k"); (1., "");
        (1e-3, "m"); (1e-6, "u"); (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]
    in
    match List.find_opt (fun (m, _) -> a >= m && a < m *. 1e3) pick with
    | Some (m, suf) ->
        let scaled = v /. m in
        (* Up to 6 significant digits without a trailing ".": %g does it. *)
        Printf.sprintf "%g%s" scaled suf
    | None -> Printf.sprintf "%g" v
