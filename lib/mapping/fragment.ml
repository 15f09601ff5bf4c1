type client_source = Set of string | Assoc of string
[@@deriving eq, ord, show { with_path = false }]

type t = {
  client_source : client_source;
  client_cond : Query.Cond.t;
  pairs : (string * string) list;
  table : string;
  store_cond : Query.Cond.t;
}
[@@deriving eq, ord]

let entity ~set ~cond ~table ?(store_cond = Query.Cond.True) pairs =
  { client_source = Set set; client_cond = cond; pairs; table; store_cond }

let assoc ~assoc ~table ?(store_cond = Query.Cond.True) pairs =
  { client_source = Assoc assoc; client_cond = Query.Cond.True; pairs; table; store_cond }

let attrs f = List.map fst f.pairs
let cols f = List.map snd f.pairs
let col_of f a = List.assoc_opt a f.pairs

(* The lookups by column read [pairs] in place. *)
let rec attr_of_col c = function
  | [] -> None
  | (a, c') :: rest -> if String.equal c c' then Some a else attr_of_col c rest

let rec mem_col_of c = function
  | [] -> false
  | (_, c') :: rest -> String.equal c c' || mem_col_of c rest

let attr_of f c = attr_of_col c f.pairs
let mem_attr f a = List.mem_assoc a f.pairs
let mem_col f c = mem_col_of c f.pairs

let client_scan f =
  match f.client_source with
  | Set s -> Query.Algebra.Scan (Query.Algebra.Entity_set s)
  | Assoc a -> Query.Algebra.Scan (Query.Algebra.Assoc_set a)

let client_query f =
  Query.Algebra.project_cols (attrs f) (Query.Algebra.Select (f.client_cond, client_scan f))

let client_side f =
  match f.client_cond with
  | Query.Cond.True -> client_scan f
  | c -> Query.Algebra.Select (c, client_scan f)

let store_side f =
  let scan = Query.Algebra.Scan (Query.Algebra.Table f.table) in
  match f.store_cond with Query.Cond.True -> scan | c -> Query.Algebra.Select (c, scan)

let store_query f =
  Query.Algebra.project_renamed (List.map (fun (a, b) -> (b, a)) f.pairs) (store_side f)

let update_side ?(rename = Fun.id) ?table f =
  let consts =
    List.filter (fun (c, _) -> not (mem_col f c)) (Query.Cond.determined_constants f.store_cond)
  in
  let pads =
    match table with
    | None -> []
    | Some tbl ->
        List.filter_map
          (fun c ->
            if mem_col f c || List.mem_assoc c consts then None
            else Some (Query.Algebra.null_as (rename c)))
          (Relational.Table.column_names tbl)
  in
  Query.Algebra.Project
    ( List.map (fun (a, c) -> Query.Algebra.col_as a (rename c)) f.pairs
      @ List.map (fun (c, v) -> Query.Algebra.const v (rename c)) consts
      @ pads,
      client_side f )

let store_query_raw f = Query.Algebra.project_cols (cols f) (store_side f)

let pp fmt f =
  Format.fprintf fmt "@[%a = %a@]" Query.Algebra.pp (client_query f) Query.Algebra.pp
    (store_query_raw f)

let show f = Format.asprintf "%a" pp f

(* One-line identification for error messages and lint diagnostics, rendered
   through the shared [Query.Pretty] condition formatter. *)
let describe f =
  let src = match f.client_source with Set s -> s | Assoc a -> a in
  let part c =
    match c with
    | Query.Cond.True -> ""
    | c -> Printf.sprintf "[%s]" (Query.Pretty.cond_string c)
  in
  Printf.sprintf "%s%s{%s} -> %s%s{%s}" src (part f.client_cond) (String.concat "," (attrs f))
    f.table (part f.store_cond)
    (String.concat "," (cols f))

let holds env client store f =
  let db = { Query.Eval.client; store } in
  let left = Query.Eval.rows_set env db (client_query f) in
  let right = Query.Eval.rows_set env db (store_query f) in
  List.equal Datum.Row.equal left right

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* The smallest name [name] gives two elements of [l], if any: the first
   adjacent pair of the sorted names, found without sorting.  Projections
   are short, so the scan is quadratic. *)
let duplicate name l =
  let rec occurs x = function [] -> false | y :: rest -> String.equal x (name y) || occurs x rest in
  let rec scan best = function
    | [] -> best
    | y :: rest ->
        let x = name y in
        let smaller = match best with Some b -> String.compare x b < 0 | None -> true in
        scan (if smaller && occurs x rest then Some x else best) rest
  in
  scan None l

let is_type_atom = function Query.Cond.Is_of _ | Query.Cond.Is_of_only _ -> true | _ -> false

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* The checks run in order and the first to fail names its offender: the
   first in the order of [attrs], [cols], [Query.Cond.atoms] or
   [Query.Cond.columns], though they read [pairs] and the conditions in
   place and build those lists only to name it. *)
let checks client tbl f =
  (match duplicate fst f.pairs with
  | Some a -> ill "duplicate client attribute %s in fragment projection" a
  | None -> ());
  (match duplicate snd f.pairs with
  | Some c -> ill "duplicate store column %s in fragment projection" c
  | None -> ());
  (match List.find_opt (fun (_, c) -> not (Relational.Table.mem_column tbl c)) f.pairs with
  | Some (_, c) -> ill "fragment projects unknown column %s.%s" f.table c
  | None -> ());
  if Query.Cond.exists_atom is_type_atom f.store_cond then
    ill "store-side condition of a fragment uses a type test";
  (let absent = function
     | Query.Cond.Is_null c | Query.Cond.Is_not_null c | Query.Cond.Cmp (c, _, _) ->
         not (Relational.Table.mem_column tbl c)
     | _ -> false
   in
   if Query.Cond.exists_atom absent f.store_cond then
     ill "store condition mentions unknown column %s.%s" f.table
       (List.find
          (fun c -> not (Relational.Table.mem_column tbl c))
          (Query.Cond.columns f.store_cond)));
  (* Every paired column's domain subsumes its attribute's, [domain] giving
     each client attribute's domain. *)
  let check_domains domain =
    List.iter
      (fun (a, c) ->
        match domain a with
        | None -> () (* reported above *)
        | Some da -> (
            match Relational.Table.domain_of tbl c with
            | Some dc when not (Datum.Domain.subsumes ~wide:dc ~narrow:da) ->
                ill "domain of %s.%s does not subsume attribute %s" f.table c a
            | _ -> ()))
      f.pairs
  in
  match f.client_source with
  | Assoc a -> (
      match Edm.Schema.find_association client a with
      | None -> ill "fragment over unknown association %s" a
      | Some assoc ->
          let domains = Edm.Schema.association_attributes client assoc in
          let expected = List.map fst domains in
          if List.sort String.compare (attrs f) <> List.sort String.compare expected then
            ill "association fragment must project the full key columns {%s}"
              (String.concat "," expected);
          if not (Query.Cond.equal f.client_cond Query.Cond.True) then
            ill "association fragments carry no client-side condition";
          check_domains (fun a -> List.assoc_opt a domains))
  | Set s -> (
      match Edm.Schema.set_root client s with
      | None -> ill "fragment over unknown entity set %s" s
      | Some root ->
          let domain = Edm.Schema.hierarchy_attribute client root in
          (match List.find_opt (fun (a, _) -> domain a = None) f.pairs with
          | Some (a, _) -> ill "fragment projects unknown attribute %s of set %s" a s
          | None -> ());
          (match List.find_opt (fun k -> not (mem_attr f k)) (Edm.Schema.key_of client root) with
          | Some k -> ill "fragment projection misses key attribute %s" k
          | None -> ());
          (* Left to right: the first atom to fail is also the first to fail
             in [Query.Cond.atoms], which only drops repeats. *)
          let rec atoms = function
            | Query.Cond.Is_of e | Query.Cond.Is_of_only e ->
                if
                  not
                    (Edm.Schema.mem_type client e && Edm.Schema.is_subtype client ~sub:e ~sup:root)
                then ill "condition tests type %s outside hierarchy of %s" e s
            | Query.Cond.Is_null a | Query.Cond.Is_not_null a | Query.Cond.Cmp (a, _, _) ->
                if domain a = None then ill "condition mentions unknown attribute %s" a
            | Query.Cond.True | Query.Cond.False -> ()
            | Query.Cond.And (a, b) | Query.Cond.Or (a, b) ->
                atoms a;
                atoms b
          in
          atoms f.client_cond;
          check_domains domain)

let well_formed env f =
  match Relational.Schema.find_table env.Query.Env.store f.table with
  | None -> fail "fragment maps to unknown table %s" f.table
  | Some tbl -> (
      match checks env.Query.Env.client tbl f with
      | () -> Ok ()
      | exception Ill_formed msg -> Error msg)
