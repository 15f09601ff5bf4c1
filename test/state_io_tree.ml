(* The [.imcs] encoder as first written, kept as the oracle for
   [Surface.State_io.save]: it builds an s-expression tree for every
   section and term entry and renders each with [Sexp.to_string], and it
   walks every fragment condition and view as a tree, interning each node by
   structure once per occurrence, where [save] prints straight into one
   buffer and walks the DAG.  Both must write the same bytes. *)

module S = Sexp
module C = Query.Cond
module A = Query.Algebra

type key =
  | Cond_atom of C.t
  | And of int * int
  | Or of int * int
  | Scan of A.source
  | Select of int * int
  | Project of A.proj_item list * int
  | Join of string * int * int * string list
  | Union of int * int
  | Ctor_leaf of Query.Ctor.t
  | If of int * int * int

let sexp_of_value = function
  | Datum.Value.Null -> S.atom "null"
  | Datum.Value.Int i -> S.field "int" [ S.int i ]
  | Datum.Value.String s -> S.field "str" [ S.string s ]
  | Datum.Value.Bool b -> S.field "bool" [ S.bool b ]
  | Datum.Value.Decimal f -> S.field "dec" [ S.atom (Printf.sprintf "%h" f) ]

let sexp_of_domain = function
  | Datum.Domain.Int -> S.atom "int"
  | Datum.Domain.String -> S.atom "string"
  | Datum.Domain.Bool -> S.atom "bool"
  | Datum.Domain.Decimal -> S.atom "decimal"
  | Datum.Domain.Enum values -> S.field "enum" (List.map S.string values)

let cmp_to_string = function
  | C.Eq -> "=" | C.Neq -> "<>" | C.Lt -> "<" | C.Le -> "<=" | C.Gt -> ">" | C.Ge -> ">="

let reference k = S.atom ("#" ^ string_of_int k)
let strings l = S.list (List.map S.string l)

let sexp_of_source = function
  | A.Entity_set s -> S.field "set" [ S.string s ]
  | A.Assoc_set a -> S.field "assoc" [ S.string a ]
  | A.Table t -> S.field "table" [ S.string t ]

let sexp_of_item = function
  | A.Col { src; dst } -> S.field "col" [ S.string src; S.string dst ]
  | A.Const { value; dst } -> S.field "const" [ sexp_of_value value; S.string dst ]
  | A.Coalesce { srcs; dst } -> S.field "coalesce" [ strings srcs; S.string dst ]

let entry_of_key = function
  | Cond_atom C.True -> S.atom "true"
  | Cond_atom C.False -> S.atom "false"
  | Cond_atom (C.Is_of e) -> S.field "isof" [ S.string e ]
  | Cond_atom (C.Is_of_only e) -> S.field "isofonly" [ S.string e ]
  | Cond_atom (C.Is_null a) -> S.field "isnull" [ S.string a ]
  | Cond_atom (C.Is_not_null a) -> S.field "notnull" [ S.string a ]
  | Cond_atom (C.Cmp (a, op, v)) -> S.field "cmp" [ S.string a; S.atom (cmp_to_string op); sexp_of_value v ]
  | Cond_atom (C.And _ | C.Or _) | Ctor_leaf (Query.Ctor.If _) -> assert false
  | And (a, b) -> S.field "and" [ reference a; reference b ]
  | Or (a, b) -> S.field "or" [ reference a; reference b ]
  | Scan src -> S.field "scan" [ sexp_of_source src ]
  | Select (c, q) -> S.field "select" [ reference c; reference q ]
  | Project (items, q) -> S.field "project" [ S.list (List.map sexp_of_item items); reference q ]
  | Join (kind, l, r, on) -> S.field kind [ reference l; reference r; strings on ]
  | Union (l, r) -> S.field "union" [ reference l; reference r ]
  | Ctor_leaf (Query.Ctor.Entity { etype; attrs }) -> S.field "entity" [ S.string etype; strings attrs ]
  | If (c, a, b) -> S.field "if" [ reference c; reference a; reference b ]

type encoder = { ids : (key, int) Hashtbl.t; mutable entries : string list; mutable count : int }

let intern enc key =
  match Hashtbl.find_opt enc.ids key with
  | Some k -> k
  | None ->
      let k = enc.count in
      Hashtbl.add enc.ids key k;
      enc.entries <- S.to_string (entry_of_key key) :: enc.entries;
      enc.count <- k + 1;
      k

(* Children are bound with [let] before the key is built, so they are
   interned left to right. *)
let rec cond_ref enc c =
  intern enc
    (match c with
    | C.And (a, b) ->
        let a = cond_ref enc a in
        let b = cond_ref enc b in
        And (a, b)
    | C.Or (a, b) ->
        let a = cond_ref enc a in
        let b = cond_ref enc b in
        Or (a, b)
    | atom -> Cond_atom atom)

let rec query_ref enc q =
  let binary kind l r on =
    let l = query_ref enc l in
    let r = query_ref enc r in
    Join (kind, l, r, on)
  in
  intern enc
    (match q with
    | A.Scan src -> Scan src
    | A.Select (c, q) ->
        let c = cond_ref enc c in
        let q = query_ref enc q in
        Select (c, q)
    | A.Project (items, q) -> Project (items, query_ref enc q)
    | A.Join (Query.Join.Inner, l, r, on) -> binary "join" l r on
    | A.Join (Query.Join.Left, l, r, on) -> binary "loj" l r on
    | A.Join (Query.Join.Full, l, r, on) -> binary "foj" l r on
    | A.Union_all (l, r) ->
        let l = query_ref enc l in
        let r = query_ref enc r in
        Union (l, r))

let rec ctor_ref enc k =
  intern enc
    (match k with
    | Query.Ctor.If (c, a, b) ->
        let c = cond_ref enc c in
        let a = ctor_ref enc a in
        let b = ctor_ref enc b in
        If (c, a, b)
    | leaf -> Ctor_leaf leaf)

let sexp_of_fragment enc (f : Mapping.Fragment.t) =
  let source =
    match f.Mapping.Fragment.client_source with
    | Mapping.Fragment.Set s -> S.field "set" [ S.string s ]
    | Mapping.Fragment.Assoc a -> S.field "assoc" [ S.string a ]
  in
  let client_cond = reference (cond_ref enc f.Mapping.Fragment.client_cond) in
  let store_cond = reference (cond_ref enc f.Mapping.Fragment.store_cond) in
  S.field "frag"
    [
      source;
      client_cond;
      S.list (List.map (fun (a, c) -> S.pair (S.string a) (S.string c)) f.Mapping.Fragment.pairs);
      S.string f.Mapping.Fragment.table;
      store_cond;
    ]

let render fields =
  let b = Buffer.create 65536 in
  Buffer.add_string b "(state";
  List.iter
    (fun (name, items) ->
      Buffer.add_string b "\n (";
      Buffer.add_string b name;
      List.iter
        (fun item ->
          Buffer.add_string b "\n  ";
          Buffer.add_string b item)
        items;
      Buffer.add_char b ')')
    fields;
  Buffer.add_string b ")\n";
  Buffer.contents b

let mult = function
  | Edm.Association.One -> S.atom "one"
  | Edm.Association.Zero_or_one -> S.atom "zero_or_one"
  | Edm.Association.Many -> S.atom "many"

let client_fields client =
  List.map
    (fun (e : Edm.Entity_type.t) ->
      S.field "type"
        [ S.string e.name;
          (match e.parent with None -> S.atom "_" | Some p -> S.string p);
          S.list (List.map (fun (a, d) -> S.pair (S.string a) (sexp_of_domain d)) e.declared);
          strings e.key;
          strings e.non_null ])
    (Edm.Schema.types client)
  @ List.map (fun (set, root) -> S.field "eset" [ S.string set; S.string root ]) (Edm.Schema.entity_sets client)
  @ List.map
      (fun (a : Edm.Association.t) ->
        S.field "rel" [ S.string a.name; S.string a.end1; S.string a.end2; mult a.mult1; mult a.mult2 ])
      (Edm.Schema.associations client)

let store_fields store =
  List.map
    (fun (t : Relational.Table.t) ->
      S.field "table"
        [ S.string t.name;
          S.list
            (List.map
               (fun (c : Relational.Table.column) ->
                 S.list [ S.string c.cname; sexp_of_domain c.domain; S.bool c.nullable ])
               t.columns);
          strings t.key;
          S.list
            (List.map
               (fun (fk : Relational.Table.foreign_key) ->
                 S.list [ strings fk.fk_columns; S.string fk.ref_table; strings fk.ref_columns ])
               t.fks) ])
    (Relational.Schema.tables store)

(* The document [Surface.State_io.save] must write. *)
let save (st : Core.State.t) =
  let enc = { ids = Hashtbl.create 4096; entries = []; count = 0 } in
  let render_all = List.map S.to_string in
  let fragments = List.map (sexp_of_fragment enc) (Mapping.Fragments.to_list st.Core.State.fragments) in
  let entity_binding (name, (v : Query.View.t)) =
    let q = query_ref enc v.Query.View.query in
    let c = ctor_ref enc v.Query.View.ctor in
    S.field "for_entity" [ S.string name; S.field "view" [ reference q; reference c ] ]
  in
  let query_binding kind (name, q) = S.field kind [ S.string name; reference (query_ref enc q) ] in
  let qv = st.Core.State.query_views in
  let entity_views = List.map entity_binding (Query.View.entity_view_bindings qv) in
  let assoc_views = List.map (query_binding "for_assoc") (Query.View.assoc_view_bindings qv) in
  let update_views =
    List.map (query_binding "for_table") (Query.View.update_view_bindings st.Core.State.update_views)
  in
  let env = st.Core.State.env in
  render
    [
      ("client", render_all (client_fields env.Query.Env.client));
      ("store", render_all (store_fields env.Query.Env.store));
      ("terms", List.rev enc.entries);
      ("fragments", render_all fragments);
      ("query_views", render_all (entity_views @ assoc_views));
      ("update_views", render_all update_views);
    ]
