(* Resolve type atoms under a fixed exact type. *)
let resolve_types schema ~etype c =
  Cond.map_atoms
    (function
      | Cond.Is_of e ->
          if Edm.Schema.mem_type schema etype && Edm.Schema.is_subtype schema ~sub:etype ~sup:e
          then Cond.True
          else Cond.False
      | Cond.Is_of_only e -> if e = etype then Cond.True else Cond.False
      | (Cond.True | Cond.False | Cond.Is_null _ | Cond.Is_not_null _ | Cond.Cmp _
        | Cond.And _ | Cond.Or _) as atom ->
          atom)
    c

(* A value strictly between two floats [a < b], or [b] when none is. *)
let midpoint a b =
  let m = (a +. b) /. 2. in
  if a < m && m < b then m else Float.succ a

let rec with_midpoints = function
  | a :: (b :: _ as rest) -> a :: midpoint a b :: with_midpoints rest
  | fs -> fs

(* The Int candidates: each constant with its neighbours, or one Int. *)
let ints constants =
  match List.filter_map (function Datum.Value.Int n -> Some n | _ -> None) constants with
  | [] -> [ Datum.Value.Int 0 ]
  | ns -> List.concat_map (fun n -> Datum.Value.[ Int (n - 1); Int n; Int (n + 1) ]) ns

let decimals constants =
  match
    List.sort_uniq Float.compare
      (List.filter_map (function Datum.Value.Decimal f -> Some f | _ -> None) constants)
  with
  | [] -> [ Datum.Value.Decimal 0. ]
  | least :: _ as fs ->
      let greatest = List.nth fs (List.length fs - 1) in
      List.map
        (fun f -> Datum.Value.Decimal f)
        ((Float.pred least :: with_midpoints fs) @ [ Float.succ greatest ])

let candidates domain ~nullable constants =
  let values =
    match domain with
    | None -> []
    | Some (Datum.Domain.Enum names) -> List.map (fun s -> Datum.Value.String s) names
    | Some Datum.Domain.Bool -> [ Datum.Value.Bool false; Datum.Value.Bool true ]
    | Some Datum.Domain.Int -> ints constants
    (* A Decimal attribute also holds Int values, which order below every
       Decimal value. *)
    | Some Datum.Domain.Decimal -> ints constants @ decimals constants
    | Some Datum.Domain.String ->
        Datum.Value.String ""
        :: List.concat_map
             (function
               | Datum.Value.String s -> Datum.Value.[ String s; String (s ^ "\x00") ] | _ -> [])
             constants
  in
  let values = List.sort_uniq Datum.Value.compare values in
  if nullable then Datum.Value.Null :: values else values

(* All assignments for the condition's attributes, as rows. *)
let grid schema ~etype c =
  List.fold_left
    (fun rows a ->
      let constants =
        List.filter_map
          (function Cond.Cmp (a', _, v) when a' = a -> Some v | _ -> None)
          (Cond.atoms c)
      in
      let values =
        candidates
          (Edm.Schema.attribute_domain schema etype a)
          ~nullable:(Edm.Schema.attribute_nullable schema etype a)
          constants
      in
      List.concat_map (fun row -> List.map (fun v -> Datum.Row.add a v row) values) rows)
    [ Datum.Row.empty ] (Cond.columns c)

(* The decision path of [tautology] and [satisfiable]: resolve the type
   atoms, simplify, and walk the grid only when that leaves an attribute
   condition.  No type atom is left to read the rows' type. *)
let decide quantifier schema ~etype c =
  match Cond.simplify (resolve_types schema ~etype c) with
  | Cond.True -> true
  | Cond.False -> false
  | c -> quantifier (fun row -> Cond.eval schema row c) (grid schema ~etype c)

let tautology = decide List.for_all
let satisfiable = decide List.exists

(* Both sides over the grid of their conjunction, so that the regions of
   each side's constants line up. *)
let implies schema ~etype c1 c2 =
  let r1 = Cond.simplify (resolve_types schema ~etype c1)
  and r2 = Cond.simplify (resolve_types schema ~etype c2) in
  List.for_all
    (fun row -> (not (Cond.eval schema row r1)) || Cond.eval schema row r2)
    (grid schema ~etype (Cond.And (r1, r2)))
