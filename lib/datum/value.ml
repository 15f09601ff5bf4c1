type t =
  | Null
  | Int of int
  | String of string
  | Bool of bool
  | Decimal of float
[@@deriving eq, ord, show { with_path = false }]

let is_null = function Null -> true | Int _ | String _ | Bool _ | Decimal _ -> false

(* A multiplicative mix, so that keys a stride apart do not share buckets;
   [Hashtbl.hash] normalizes [-0.] and NaN as [compare] equates them. *)
let hash = function
  | Null -> 0
  | Int n ->
      let h = n * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)
  | String s -> Hashtbl.hash s
  | Bool b -> if b then 1 else 2
  | Decimal f -> Hashtbl.hash f

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

let domain = function
  | Null -> None
  | Int _ -> Some Domain.Int
  | String _ -> Some Domain.String
  | Bool _ -> Some Domain.Bool
  | Decimal _ -> Some Domain.Decimal

let member v d =
  match v, d with
  | Null, _ -> true
  | String s, Domain.Enum values -> List.mem s values
  | _, _ -> (
      match domain v with
      | None -> true
      | Some dv -> Domain.subsumes ~wide:d ~narrow:dv)

let of_domain d v = match d, v with Domain.Decimal, Int n -> Decimal (float_of_int n) | _ -> v

let decimal f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 1 in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let to_literal = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | String s -> Printf.sprintf "'%s'" s
  | Bool true -> "True"
  | Bool false -> "False"
  | Decimal f -> decimal f
