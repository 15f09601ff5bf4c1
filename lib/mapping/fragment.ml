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
let attr_of f c = List.assoc_opt c (List.map (fun (a, b) -> (b, a)) f.pairs)

let client_scan f =
  match f.client_source with
  | Set s -> Query.Algebra.Scan (Query.Algebra.Entity_set s)
  | Assoc a -> Query.Algebra.Scan (Query.Algebra.Assoc_set a)

let client_query f =
  Query.Algebra.project_cols (attrs f) (Query.Algebra.Select (f.client_cond, client_scan f))

let select_store f =
  let scan = Query.Algebra.Scan (Query.Algebra.Table f.table) in
  match f.store_cond with Query.Cond.True -> scan | c -> Query.Algebra.Select (c, scan)

let store_query f =
  Query.Algebra.project_renamed (List.map (fun (a, b) -> (b, a)) f.pairs) (select_store f)

let store_query_raw f = Query.Algebra.project_cols (cols f) (select_store f)

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

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let distinct l =
  let sorted = List.sort String.compare l in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  dup sorted

let well_formed env f =
  let client = env.Query.Env.client in
  let store = env.Query.Env.store in
  let* tbl =
    match Relational.Schema.find_table store f.table with
    | Some tbl -> Ok tbl
    | None -> fail "fragment maps to unknown table %s" f.table
  in
  let* () =
    match distinct (attrs f) with
    | Some a -> fail "duplicate client attribute %s in fragment projection" a
    | None -> Ok ()
  in
  let* () =
    match distinct (cols f) with
    | Some c -> fail "duplicate store column %s in fragment projection" c
    | None -> Ok ()
  in
  let* () =
    Datum.Results.all_ok
      (fun c ->
        if Relational.Table.mem_column tbl c then Ok ()
        else fail "fragment projects unknown column %s.%s" f.table c)
      (cols f)
  in
  let* () =
    if Query.Cond.type_atoms f.store_cond = [] then Ok ()
    else fail "store-side condition of a fragment uses a type test"
  in
  let* () =
    Datum.Results.all_ok
      (fun c ->
        if Relational.Table.mem_column tbl c then Ok ()
        else fail "store condition mentions unknown column %s.%s" f.table c)
      (Query.Cond.columns f.store_cond)
  in
  (* Every paired column's domain subsumes its attribute's, [domain] giving
     each client attribute's domain. *)
  let check_domains domain =
    Datum.Results.all_ok
      (fun (a, c) ->
        match domain a, Relational.Table.domain_of tbl c with
        | Some da, Some dc ->
            if Datum.Domain.subsumes ~wide:dc ~narrow:da then Ok ()
            else fail "domain of %s.%s does not subsume attribute %s" f.table c a
        | None, _ | _, None -> Ok () (* reported above *))
      f.pairs
  in
  match f.client_source with
  | Assoc a -> (
      match Edm.Schema.find_association client a with
      | None -> fail "fragment over unknown association %s" a
      | Some assoc ->
          let domains = Edm.Schema.association_attributes client assoc in
          let expected = List.map fst domains in
          let* () =
            if List.sort String.compare (attrs f) = List.sort String.compare expected then Ok ()
            else
              fail "association fragment must project the full key columns {%s}"
                (String.concat "," expected)
          in
          let* () =
            if Query.Cond.equal f.client_cond Query.Cond.True then Ok ()
            else fail "association fragments carry no client-side condition"
          in
          check_domains (fun a -> List.assoc_opt a domains))
  | Set s -> (
      match Edm.Schema.set_root client s with
      | None -> fail "fragment over unknown entity set %s" s
      | Some root ->
          let domain = Edm.Schema.hierarchy_attribute client root in
          let* () =
            Datum.Results.all_ok
              (fun a ->
                if domain a <> None then Ok ()
                else fail "fragment projects unknown attribute %s of set %s" a s)
              (attrs f)
          in
          let key = Edm.Schema.key_of client root in
          let* () =
            Datum.Results.all_ok
              (fun k ->
                if List.mem k (attrs f) then Ok ()
                else fail "fragment projection misses key attribute %s" k)
              key
          in
          let* () =
            Datum.Results.all_ok
              (fun atom ->
                match atom with
                | Query.Cond.Is_of e | Query.Cond.Is_of_only e ->
                    if Edm.Schema.mem_type client e && Edm.Schema.is_subtype client ~sub:e ~sup:root
                    then Ok ()
                    else fail "condition tests type %s outside hierarchy of %s" e s
                | Query.Cond.Is_null a | Query.Cond.Is_not_null a | Query.Cond.Cmp (a, _, _) ->
                    if domain a <> None then Ok ()
                    else fail "condition mentions unknown attribute %s" a
                | Query.Cond.True | Query.Cond.False | Query.Cond.And _ | Query.Cond.Or _ ->
                    Ok ())
              (Query.Cond.atoms f.client_cond)
          in
          check_domains domain)
