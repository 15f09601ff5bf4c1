type cmp = Eq | Neq | Lt | Le | Gt | Ge [@@deriving eq, ord, show { with_path = false }]

type t =
  | True
  | False
  | Is_of of string
  | Is_of_only of string
  | Is_null of string
  | Is_not_null of string
  | Cmp of string * cmp * Datum.Value.t
  | And of t * t
  | Or of t * t
[@@deriving eq, ord]

module Memo = Phys_memo.Make (struct
  type nonrec t = t

  let iter_children f = function
    | And (a, b) | Or (a, b) ->
        f a;
        f b
    | True | False | Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _ -> ()
end)

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "TRUE"
  | False -> Format.pp_print_string fmt "FALSE"
  | Is_of e -> Format.fprintf fmt "IS OF %s" e
  | Is_of_only e -> Format.fprintf fmt "IS OF (ONLY %s)" e
  | Is_null a -> Format.fprintf fmt "%s IS NULL" a
  | Is_not_null a -> Format.fprintf fmt "%s IS NOT NULL" a
  | Cmp (a, op, v) ->
      let ops = match op with Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" in
      Format.fprintf fmt "%s %s %s" a ops (Datum.Value.to_literal v)
  | And (a, b) -> Format.fprintf fmt "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a OR %a)" pp a pp b

let show c = Format.asprintf "%a" pp c

let conj = function [] -> True | c :: rest -> List.fold_left (fun acc x -> And (acc, x)) c rest
let disj = function [] -> False | c :: rest -> List.fold_left (fun acc x -> Or (acc, x)) c rest

(* One accumulator, so the left-nested chains [conj] builds split in linear
   time. *)
let conjuncts c =
  let rec go c acc = match c with And (a, b) -> go a (go b acc) | c -> c :: acc in
  go c []

let eval_cmp op va vb =
  if Datum.Value.is_null va || Datum.Value.is_null vb then false
  else
    let c = Datum.Value.compare va vb in
    match op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0

let row_type row =
  match Datum.Row.find Env.type_column row with
  | Some (Datum.Value.String ty) -> Some ty
  | Some _ | None -> None

let rec eval schema row = function
  | True -> true
  | False -> false
  | Is_of e -> (
      match row_type row with
      | Some ty -> Edm.Schema.mem_type schema ty && Edm.Schema.is_subtype schema ~sub:ty ~sup:e
      | None -> false)
  | Is_of_only e -> row_type row = Some e
  | Is_null a -> (
      match Datum.Row.find a row with Some v -> Datum.Value.is_null v | None -> true)
  | Is_not_null a -> (
      match Datum.Row.find a row with Some v -> not (Datum.Value.is_null v) | None -> false)
  | Cmp (a, op, c) -> (
      match Datum.Row.find a row with Some v -> eval_cmp op v c | None -> false)
  | And (a, b) -> eval schema row a && eval schema row b
  | Or (a, b) -> eval schema row a || eval schema row b

let rec atoms_acc acc = function
  | True | False -> acc
  | (Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _) as a ->
      if List.exists (equal a) acc then acc else a :: acc
  | And (a, b) | Or (a, b) -> atoms_acc (atoms_acc acc a) b

let atoms c = List.rev (atoms_acc [] c)

let rec exists_atom p = function
  | True | False -> false
  | (Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _) as a -> p a
  | And (a, b) | Or (a, b) -> exists_atom p a || exists_atom p b

let columns c =
  List.filter_map
    (function
      | Is_null a | Is_not_null a | Cmp (a, _, _) -> Some a
      | True | False | Is_of _ | Is_of_only _ | And _ | Or _ -> None)
    (atoms c)
  |> List.sort_uniq String.compare

let type_atoms c =
  List.filter (function Is_of _ | Is_of_only _ -> true | _ -> false) (atoms c)

let rec map_atoms f c =
  match c with
  | True | False -> c
  | Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _ -> f c
  | And (a, b) ->
      let a' = map_atoms f a and b' = map_atoms f b in
      if a' == a && b' == b then c else And (a', b')
  | Or (a, b) ->
      let a' = map_atoms f a and b' = map_atoms f b in
      if a' == a && b' == b then c else Or (a', b')

let rename_columns pairs c =
  let subst a = match List.assoc_opt a pairs with Some b -> b | None -> a in
  map_atoms
    (function
      | Is_null a -> Is_null (subst a)
      | Is_not_null a -> Is_not_null (subst a)
      | Cmp (a, op, v) -> Cmp (subst a, op, v)
      | (True | False | Is_of _ | Is_of_only _ | And _ | Or _) as atom -> atom)
    c

let with_domains domain =
  map_atoms (function
    | Cmp (a, op, v) as atom -> (
        match domain a with
        | Some d ->
            let v' = Datum.Value.of_domain d v in
            if v' == v then atom else Cmp (a, op, v')
        | None -> atom)
    | atom -> atom)

(* Unit and absorbing elements and duplicate removal, bottom up.  [orig] is
   the node being simplified: when its children come back physically
   unchanged it is returned itself, so simplifying a simplified condition
   allocates nothing. *)
let and_of ~orig a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, x | x, True -> x
  | x, y when equal x y -> x
  | x, y -> ( match orig with And (a0, b0) when a0 == x && b0 == y -> orig | _ -> And (x, y))

let or_of ~orig a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, x | x, False -> x
  | x, y when equal x y -> x
  | x, y -> ( match orig with Or (a0, b0) when a0 == x && b0 == y -> orig | _ -> Or (x, y))

let rec simplify c =
  match c with
  | True | False | Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _ -> c
  | And (a, b) -> and_of ~orig:c (simplify a) (simplify b)
  | Or (a, b) -> or_of ~orig:c (simplify a) (simplify b)

let simplify_and a b = and_of ~orig:True a b

let rec dnf = function
  | True -> [ [] ]
  | False -> []
  | (Is_of _ | Is_of_only _ | Is_null _ | Is_not_null _ | Cmp _) as a -> [ [ a ] ]
  | Or (a, b) -> dnf a @ dnf b
  | And (a, b) ->
      let da = dnf a and db = dnf b in
      List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) db) da

let flip_cmp = function Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

let rec negate = function
  | True -> Some False
  | False -> Some True
  | Is_of _ | Is_of_only _ -> None
  | Is_null a -> Some (Is_not_null a)
  | Is_not_null a -> Some (Is_null a)
  | Cmp (a, op, v) -> Some (Or (Is_null a, Cmp (a, flip_cmp op, v)))
  | And (a, b) -> (
      match negate a, negate b with Some na, Some nb -> Some (Or (na, nb)) | _ -> None)
  | Or (a, b) -> (
      match negate a, negate b with Some na, Some nb -> Some (And (na, nb)) | _ -> None)

(* Pairwise unsatisfiability of two atoms under SQL semantics.  Sound, not
   complete: [true] means no row satisfies both atoms.  A comparison against
   [NULL] is never satisfied, so a pair containing such an atom is vacuously
   contradictory.  [Is_of]-vs-[Is_of] pairs need hierarchy reasoning and are
   left to callers that hold a schema (lint's type-aware passes). *)
let atoms_contradict a b =
  (* Can any x satisfy [x = v] and [x op w]?  [eval_cmp] is exactly that test
     (and is false when [v] is NULL, i.e. [x = NULL] alone is unsatisfiable). *)
  let eq_vs v op w = not (eval_cmp op v w) in
  (* Bounds as (value, strict): [x < v] / [x <= v] against [x > w] / [x >= w]. *)
  let bounds (hi, hi_strict) (lo, lo_strict) =
    Datum.Value.is_null hi || Datum.Value.is_null lo
    ||
    let c = Datum.Value.compare hi lo in
    c < 0 || (c = 0 && (hi_strict || lo_strict))
  in
  let upper = function Lt -> Some true | Le -> Some false | _ -> None in
  let lower = function Gt -> Some true | Ge -> Some false | _ -> None in
  match (a, b) with
  | Is_null x, Is_not_null y | Is_not_null x, Is_null y -> x = y
  | Is_null x, Cmp (y, _, _) | Cmp (y, _, _), Is_null x -> x = y
  | Is_of_only x, Is_of_only y -> x <> y
  | Cmp (x, Eq, v), Cmp (y, op, w) when x = y && op <> Eq -> eq_vs v op w
  | Cmp (x, op, w), Cmp (y, Eq, v) when x = y && op <> Eq -> eq_vs v op w
  | Cmp (x, Eq, v), Cmp (y, Eq, w) when x = y ->
      Datum.Value.is_null v || Datum.Value.is_null w || Datum.Value.compare v w <> 0
  | Cmp (x, op1, v), Cmp (y, op2, w) when x = y -> (
      match (upper op1, lower op2, upper op2, lower op1) with
      | Some s1, Some s2, _, _ -> bounds (v, s1) (w, s2)
      | _, _, Some s2, Some s1 -> bounds (w, s2) (v, s1)
      | _ -> false)
  | _ -> false
