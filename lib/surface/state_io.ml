let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* -- values and domains ------------------------------------------------------ *)

let sexp_of_value = function
  | Datum.Value.Null -> Sexp.atom "null"
  | Datum.Value.Int i -> Sexp.field "int" [ Sexp.int i ]
  | Datum.Value.String s -> Sexp.field "str" [ Sexp.string s ]
  | Datum.Value.Bool b -> Sexp.field "bool" [ Sexp.bool b ]
  | Datum.Value.Decimal f -> Sexp.field "dec" [ Sexp.atom (Printf.sprintf "%h" f) ]

let value_of_sexp = function
  | Sexp.Atom "null" -> Ok Datum.Value.Null
  | Sexp.List [ Sexp.Atom "int"; i ] -> Result.map (fun i -> Datum.Value.Int i) (Sexp.as_int i)
  | Sexp.List [ Sexp.Atom "str"; s ] ->
      Result.map (fun s -> Datum.Value.String s) (Sexp.as_atom s)
  | Sexp.List [ Sexp.Atom "bool"; b ] ->
      Result.map (fun b -> Datum.Value.Bool b) (Sexp.as_bool b)
  | Sexp.List [ Sexp.Atom "dec"; f ] ->
      let* a = Sexp.as_atom f in
      (match float_of_string_opt a with
      | Some f -> Ok (Datum.Value.Decimal f)
      | None -> fail "bad decimal %s" a)
  | s -> fail "bad value %s" (Sexp.to_string s)

let sexp_of_domain = function
  | Datum.Domain.Int -> Sexp.atom "int"
  | Datum.Domain.String -> Sexp.atom "string"
  | Datum.Domain.Bool -> Sexp.atom "bool"
  | Datum.Domain.Decimal -> Sexp.atom "decimal"
  | Datum.Domain.Enum values -> Sexp.field "enum" (List.map Sexp.string values)

let domain_of_sexp = function
  | Sexp.Atom "int" -> Ok Datum.Domain.Int
  | Sexp.Atom "string" -> Ok Datum.Domain.String
  | Sexp.Atom "bool" -> Ok Datum.Domain.Bool
  | Sexp.Atom "decimal" -> Ok Datum.Domain.Decimal
  | Sexp.List (Sexp.Atom "enum" :: values) ->
      Result.map (fun v -> Datum.Domain.Enum v) (Datum.Results.map_ok Sexp.as_atom values)
  | s -> fail "bad domain %s" (Sexp.to_string s)

(* -- conditions --------------------------------------------------------------- *)

let cmp_to_string = function
  | Query.Cond.Eq -> "=" | Query.Cond.Neq -> "<>" | Query.Cond.Lt -> "<"
  | Query.Cond.Le -> "<=" | Query.Cond.Gt -> ">" | Query.Cond.Ge -> ">="

let cmp_of_string = function
  | "=" -> Ok Query.Cond.Eq | "<>" -> Ok Query.Cond.Neq | "<" -> Ok Query.Cond.Lt
  | "<=" -> Ok Query.Cond.Le | ">" -> Ok Query.Cond.Gt | ">=" -> Ok Query.Cond.Ge
  | s -> fail "bad comparison %s" s

(* -- the term table --------------------------------------------------------------- *)

(* Every condition, query and constructor node is a term.  [save] interns each
   distinct node once, children first, so an entry's children are
   back-references [#k] to earlier entries. *)

(* A node with its children replaced by their indices in the table, so two
   nodes are structurally equal iff their keys are equal.  Leaves are kept
   whole. *)
type key =
  | Cond_atom of Query.Cond.t
  | And of int * int
  | Or of int * int
  | Scan of Query.Algebra.source
  | Select of int * int
  | Project of Query.Algebra.proj_item list * int
  | Join of string * int * int * string list
  | Union of int * int
  | Ctor_leaf of Query.Ctor.t
  | If of int * int * int

let reference k = Sexp.atom ("#" ^ string_of_int k)
let strings l = Sexp.list (List.map Sexp.string l)

let sexp_of_source = function
  | Query.Algebra.Entity_set s -> Sexp.field "set" [ Sexp.string s ]
  | Query.Algebra.Assoc_set a -> Sexp.field "assoc" [ Sexp.string a ]
  | Query.Algebra.Table t -> Sexp.field "table" [ Sexp.string t ]

let sexp_of_item = function
  | Query.Algebra.Col { src; dst } -> Sexp.field "col" [ Sexp.string src; Sexp.string dst ]
  | Query.Algebra.Const { value; dst } -> Sexp.field "const" [ sexp_of_value value; Sexp.string dst ]
  | Query.Algebra.Coalesce { srcs; dst } -> Sexp.field "coalesce" [ strings srcs; Sexp.string dst ]

let not_a_leaf () = invalid_arg "State_io: a term with children is not a leaf"

let entry_of_key = function
  | Cond_atom c -> (
      match c with
      | Query.Cond.True -> Sexp.atom "true"
      | Query.Cond.False -> Sexp.atom "false"
      | Query.Cond.Is_of e -> Sexp.field "isof" [ Sexp.string e ]
      | Query.Cond.Is_of_only e -> Sexp.field "isofonly" [ Sexp.string e ]
      | Query.Cond.Is_null a -> Sexp.field "isnull" [ Sexp.string a ]
      | Query.Cond.Is_not_null a -> Sexp.field "notnull" [ Sexp.string a ]
      | Query.Cond.Cmp (a, op, v) ->
          Sexp.field "cmp" [ Sexp.string a; Sexp.atom (cmp_to_string op); sexp_of_value v ]
      | Query.Cond.And _ | Query.Cond.Or _ -> not_a_leaf ())
  | And (a, b) -> Sexp.field "and" [ reference a; reference b ]
  | Or (a, b) -> Sexp.field "or" [ reference a; reference b ]
  | Scan src -> Sexp.field "scan" [ sexp_of_source src ]
  | Select (c, q) -> Sexp.field "select" [ reference c; reference q ]
  | Project (items, q) -> Sexp.field "project" [ Sexp.list (List.map sexp_of_item items); reference q ]
  | Join (kind, l, r, on) -> Sexp.field kind [ reference l; reference r; strings on ]
  | Union (l, r) -> Sexp.field "union" [ reference l; reference r ]
  | Ctor_leaf k -> (
      match k with
      | Query.Ctor.Entity { etype; attrs } -> Sexp.field "entity" [ Sexp.string etype; strings attrs ]
      | Query.Ctor.Tuple cols -> Sexp.field "tuple" [ strings cols ]
      | Query.Ctor.If _ -> not_a_leaf ())
  | If (c, a, b) -> Sexp.field "if" [ reference c; reference a; reference b ]

(* The interned terms so far; [visits] counts the nodes the encoder looked up. *)
type interned = {
  ids : (key, int) Hashtbl.t;
  mutable entries : string list;
  mutable count : int;
  mutable visits : int;
}

(* The index of the node [key], a new entry if no equal node came before. *)
let intern tbl key =
  tbl.visits <- tbl.visits + 1;
  match Hashtbl.find_opt tbl.ids key with
  | Some k -> k
  | None ->
      let k = tbl.count in
      Hashtbl.add tbl.ids key k;
      tbl.entries <- Sexp.to_string (entry_of_key key) :: tbl.entries;
      tbl.count <- k + 1;
      k

type encoder = {
  terms : interned;
  cond_ref : Query.Cond.t -> int;
  query_ref : Query.Algebra.t -> int;
  ctor_ref : Query.Ctor.t -> int;
}

(* The views form a DAG, so each reference function is memoized on physical
   identity: a subterm shared by many views is walked once, not once per
   occurrence.  A node reached again had all its subterms interned on its
   first visit, so skipping it adds no entry and the table order is the
   tree walk's.  Children are bound with [let] before building a key, so they
   are interned left to right, which fixes that order. *)
let encoder () =
  let terms = { ids = Hashtbl.create 4096; entries = []; count = 0; visits = 0 } in
  let cond_ref =
    Query.Cond.Memo.fix (Query.Cond.Memo.create ()) (fun cond_ref c ->
        intern terms
          (match c with
          | Query.Cond.And (a, b) ->
              let a = cond_ref a in
              let b = cond_ref b in
              And (a, b)
          | Query.Cond.Or (a, b) ->
              let a = cond_ref a in
              let b = cond_ref b in
              Or (a, b)
          | atom -> Cond_atom atom))
  in
  let query_ref =
    Query.Algebra.Memo.fix (Query.Algebra.Memo.create ()) (fun query_ref q ->
        let binary kind l r on =
          let l = query_ref l in
          let r = query_ref r in
          Join (kind, l, r, on)
        in
        intern terms
          (match q with
          | Query.Algebra.Scan src -> Scan src
          | Query.Algebra.Select (c, q) ->
              let c = cond_ref c in
              let q = query_ref q in
              Select (c, q)
          | Query.Algebra.Project (items, q) -> Project (items, query_ref q)
          | Query.Algebra.Join (l, r, on) -> binary "join" l r on
          | Query.Algebra.Left_outer_join (l, r, on) -> binary "loj" l r on
          | Query.Algebra.Full_outer_join (l, r, on) -> binary "foj" l r on
          | Query.Algebra.Union_all (l, r) ->
              let l = query_ref l in
              let r = query_ref r in
              Union (l, r)))
  in
  let ctor_ref =
    Query.Ctor.Memo.fix (Query.Ctor.Memo.create ()) (fun ctor_ref k ->
        intern terms
          (match k with
          | Query.Ctor.If (c, a, b) ->
              let c = cond_ref c in
              let a = ctor_ref a in
              let b = ctor_ref b in
              If (c, a, b)
          | leaf -> Ctor_leaf leaf))
  in
  { terms; cond_ref; query_ref; ctor_ref }

let sexp_of_view enc (v : Query.View.t) =
  let q = enc.query_ref v.Query.View.query in
  let c = enc.ctor_ref v.Query.View.ctor in
  Sexp.field "view" [ reference q; reference c ]

(* -- decoding terms ------------------------------------------------------------------- *)

type term = Cond of Query.Cond.t | Query of Query.Algebra.t | Ctor of Query.Ctor.t

let sort_name = function Cond _ -> "condition" | Query _ -> "query" | Ctor _ -> "constructor"

(* The entries decoded so far; [#k] may name only those. *)
type table = { terms : term array; mutable len : int }

(* At most nine digits, so [int_of_string] cannot overflow. *)
let digits s = s <> "" && String.length s <= 9 && String.for_all (fun c -> c >= '0' && c <= '9') s

(* [Some t] when [s] is a back-reference, [None] when it is an inline term. *)
let resolve tbl = function
  | Sexp.Atom a when String.length a > 0 && a.[0] = '#' ->
      let k = String.sub a 1 (String.length a - 1) in
      if not (digits k) then fail "bad reference %s" a
      else
        let k = int_of_string k in
        if k < tbl.len then Ok (Some tbl.terms.(k))
        else fail "reference %s does not name an earlier term" a
  | _ -> Ok None

let wrong_sort s t expected =
  fail "%s is a %s, expected a %s" (Sexp.to_string s) (sort_name t) expected

let rec cond_of_sexp tbl = function
  | Sexp.Atom "true" -> Ok Query.Cond.True
  | Sexp.Atom "false" -> Ok Query.Cond.False
  | Sexp.List [ Sexp.Atom "isof"; e ] -> Result.map (fun e -> Query.Cond.Is_of e) (Sexp.as_atom e)
  | Sexp.List [ Sexp.Atom "isofonly"; e ] ->
      Result.map (fun e -> Query.Cond.Is_of_only e) (Sexp.as_atom e)
  | Sexp.List [ Sexp.Atom "isnull"; a ] ->
      Result.map (fun a -> Query.Cond.Is_null a) (Sexp.as_atom a)
  | Sexp.List [ Sexp.Atom "notnull"; a ] ->
      Result.map (fun a -> Query.Cond.Is_not_null a) (Sexp.as_atom a)
  | Sexp.List [ Sexp.Atom "cmp"; a; op; v ] ->
      let* a = Sexp.as_atom a in
      let* op = Result.bind (Sexp.as_atom op) cmp_of_string in
      let* v = value_of_sexp v in
      Ok (Query.Cond.Cmp (a, op, v))
  | Sexp.List [ Sexp.Atom "and"; a; b ] ->
      let* a = cond_at tbl a in
      let* b = cond_at tbl b in
      Ok (Query.Cond.And (a, b))
  | Sexp.List [ Sexp.Atom "or"; a; b ] ->
      let* a = cond_at tbl a in
      let* b = cond_at tbl b in
      Ok (Query.Cond.Or (a, b))
  | s -> fail "bad condition %s" (Sexp.to_string s)

and cond_at tbl s =
  let* r = resolve tbl s in
  match r with
  | None -> cond_of_sexp tbl s
  | Some (Cond c) -> Ok c
  | Some t -> wrong_sort s t "condition"

let source_of_sexp = function
  | Sexp.List [ Sexp.Atom "set"; s ] ->
      Result.map (fun s -> Query.Algebra.Entity_set s) (Sexp.as_atom s)
  | Sexp.List [ Sexp.Atom "assoc"; a ] ->
      Result.map (fun a -> Query.Algebra.Assoc_set a) (Sexp.as_atom a)
  | Sexp.List [ Sexp.Atom "table"; t ] ->
      Result.map (fun t -> Query.Algebra.Table t) (Sexp.as_atom t)
  | s -> fail "bad source %s" (Sexp.to_string s)

let item_of_sexp = function
  | Sexp.List [ Sexp.Atom "col"; src; dst ] ->
      let* src = Sexp.as_atom src in
      let* dst = Sexp.as_atom dst in
      Ok (Query.Algebra.Col { src; dst })
  | Sexp.List [ Sexp.Atom "const"; v; dst ] ->
      let* value = value_of_sexp v in
      let* dst = Sexp.as_atom dst in
      Ok (Query.Algebra.Const { value; dst })
  | Sexp.List [ Sexp.Atom "coalesce"; srcs; dst ] ->
      let* srcs = Result.bind (Sexp.as_list srcs) (Datum.Results.map_ok Sexp.as_atom) in
      let* dst = Sexp.as_atom dst in
      Ok (Query.Algebra.Coalesce { srcs; dst })
  | s -> fail "bad projection item %s" (Sexp.to_string s)

let rec query_of_sexp tbl = function
  | Sexp.List [ Sexp.Atom "scan"; src ] ->
      Result.map (fun s -> Query.Algebra.Scan s) (source_of_sexp src)
  | Sexp.List [ Sexp.Atom "select"; c; q ] ->
      let* c = cond_at tbl c in
      let* q = query_at tbl q in
      Ok (Query.Algebra.Select (c, q))
  | Sexp.List [ Sexp.Atom "project"; items; q ] ->
      let* items = Result.bind (Sexp.as_list items) (Datum.Results.map_ok item_of_sexp) in
      let* q = query_at tbl q in
      Ok (Query.Algebra.Project (items, q))
  | Sexp.List [ Sexp.Atom kind; l; r; on ]
    when kind = "join" || kind = "loj" || kind = "foj" ->
      let* l = query_at tbl l in
      let* r = query_at tbl r in
      let* on = Result.bind (Sexp.as_list on) (Datum.Results.map_ok Sexp.as_atom) in
      Ok
        (match kind with
        | "join" -> Query.Algebra.Join (l, r, on)
        | "loj" -> Query.Algebra.Left_outer_join (l, r, on)
        | _ -> Query.Algebra.Full_outer_join (l, r, on))
  | Sexp.List [ Sexp.Atom "union"; l; r ] ->
      let* l = query_at tbl l in
      let* r = query_at tbl r in
      Ok (Query.Algebra.Union_all (l, r))
  | s -> fail "bad query %s" (Sexp.to_string s)

and query_at tbl s =
  let* r = resolve tbl s in
  match r with
  | None -> query_of_sexp tbl s
  | Some (Query q) -> Ok q
  | Some t -> wrong_sort s t "query"

let rec ctor_of_sexp tbl = function
  | Sexp.List [ Sexp.Atom "entity"; etype; attrs ] ->
      let* etype = Sexp.as_atom etype in
      let* attrs = Result.bind (Sexp.as_list attrs) (Datum.Results.map_ok Sexp.as_atom) in
      Ok (Query.Ctor.Entity { etype; attrs })
  | Sexp.List [ Sexp.Atom "tuple"; cols ] ->
      let* cols = Result.bind (Sexp.as_list cols) (Datum.Results.map_ok Sexp.as_atom) in
      Ok (Query.Ctor.Tuple cols)
  | Sexp.List [ Sexp.Atom "if"; c; a; b ] ->
      let* c = cond_at tbl c in
      let* a = ctor_at tbl a in
      let* b = ctor_at tbl b in
      Ok (Query.Ctor.If (c, a, b))
  | s -> fail "bad constructor %s" (Sexp.to_string s)

and ctor_at tbl s =
  let* r = resolve tbl s in
  match r with
  | None -> ctor_of_sexp tbl s
  | Some (Ctor k) -> Ok k
  | Some t -> wrong_sort s t "constructor"

(* A table entry: its head names its sort. *)
let term_of_sexp tbl s =
  let* r = resolve tbl s in
  match (r, s) with
  | Some t, _ -> Ok t
  | None, Sexp.(Atom ("true" | "false")
               | List (Atom ("isof" | "isofonly" | "isnull" | "notnull" | "cmp" | "and" | "or") :: _))
    ->
      Result.map (fun c -> Cond c) (cond_of_sexp tbl s)
  | None, Sexp.List (Sexp.Atom ("scan" | "select" | "project" | "join" | "loj" | "foj" | "union") :: _)
    ->
      Result.map (fun q -> Query q) (query_of_sexp tbl s)
  | None, Sexp.List (Sexp.Atom ("entity" | "tuple" | "if") :: _) ->
      Result.map (fun k -> Ctor k) (ctor_of_sexp tbl s)
  | None, _ -> fail "bad term %s" (Sexp.to_string s)

let table_of_entries entries =
  let tbl = { terms = Array.make (List.length entries) (Cond Query.Cond.True); len = 0 } in
  let rec go = function
    | [] -> Ok tbl
    | s :: rest ->
        let* t = term_of_sexp tbl s in
        tbl.terms.(tbl.len) <- t;
        tbl.len <- tbl.len + 1;
        go rest
  in
  go entries

let view_of_sexp tbl s =
  let* args = Sexp.as_field "view" s in
  match args with
  | [ q; c ] ->
      let* query = query_at tbl q in
      let* ctor = ctor_at tbl c in
      Ok { Query.View.query; ctor }
  | _ -> fail "bad view %s" (Sexp.to_string s)

(* -- schemas ---------------------------------------------------------------------- *)

let sexp_of_etype (e : Edm.Entity_type.t) =
  Sexp.field "type"
    [
      Sexp.string e.Edm.Entity_type.name;
      (match e.Edm.Entity_type.parent with None -> Sexp.atom "_" | Some p -> Sexp.string p);
      Sexp.list
        (List.map (fun (a, d) -> Sexp.pair (Sexp.string a) (sexp_of_domain d))
           e.Edm.Entity_type.declared);
      Sexp.list (List.map Sexp.string e.Edm.Entity_type.key);
      Sexp.list (List.map Sexp.string e.Edm.Entity_type.non_null);
    ]

let etype_of_sexp s =
  let* args = Sexp.as_field "type" s in
  match args with
  | [ name; parent; declared; key; non_null ] ->
      let* name = Sexp.as_atom name in
      let* parent =
        match parent with Sexp.Atom "_" -> Ok None | p -> Result.map Option.some (Sexp.as_atom p)
      in
      let* declared =
        Result.bind (Sexp.as_list declared)
          (Datum.Results.map_ok (function
            | Sexp.List [ a; d ] ->
                let* a = Sexp.as_atom a in
                let* d = domain_of_sexp d in
                Ok (a, d)
            | s -> fail "bad attribute %s" (Sexp.to_string s)))
      in
      let* key = Result.bind (Sexp.as_list key) (Datum.Results.map_ok Sexp.as_atom) in
      let* non_null = Result.bind (Sexp.as_list non_null) (Datum.Results.map_ok Sexp.as_atom) in
      Ok { Edm.Entity_type.name; parent; declared; key; non_null }
  | _ -> fail "bad entity type %s" (Sexp.to_string s)

let mult_to_string = function
  | Edm.Association.One -> "one"
  | Edm.Association.Zero_or_one -> "zero_or_one"
  | Edm.Association.Many -> "many"

let mult_of_string = function
  | "one" -> Ok Edm.Association.One
  | "zero_or_one" -> Ok Edm.Association.Zero_or_one
  | "many" -> Ok Edm.Association.Many
  | s -> fail "bad multiplicity %s" s

let client_fields client =
  List.map sexp_of_etype (Edm.Schema.types client)
    @ List.map
        (fun (set, root) -> Sexp.field "eset" [ Sexp.string set; Sexp.string root ])
        (Edm.Schema.entity_sets client)
    @ List.map
        (fun (a : Edm.Association.t) ->
          Sexp.field "rel"
            [ Sexp.string a.Edm.Association.name; Sexp.string a.Edm.Association.end1;
              Sexp.string a.Edm.Association.end2;
              Sexp.atom (mult_to_string a.Edm.Association.mult1);
              Sexp.atom (mult_to_string a.Edm.Association.mult2) ])
        (Edm.Schema.associations client)

let client_of_sexp s =
  let* fields = Sexp.as_field "client" s in
  (* Types in dependency order: roots first. *)
  let* types =
    Datum.Results.map_ok etype_of_sexp
      (List.filter (function Sexp.List (Sexp.Atom "type" :: _) -> true | _ -> false) fields)
  in
  let sets =
    List.filter_map
      (function
        | Sexp.List [ Sexp.Atom "eset"; Sexp.Atom set; Sexp.Atom root ] -> Some (set, root)
        | _ -> None)
      fields
  in
  let rec place placed pending schema =
    match pending with
    | [] -> Ok schema
    | _ -> (
        let ready, blocked =
          List.partition
            (fun (e : Edm.Entity_type.t) ->
              match e.Edm.Entity_type.parent with None -> true | Some p -> List.mem p placed)
            pending
        in
        match ready with
        | [] -> fail "unresolvable parents in saved client schema"
        | _ ->
            let* schema =
              List.fold_left
                (fun acc (e : Edm.Entity_type.t) ->
                  let* schema = acc in
                  match e.Edm.Entity_type.parent with
                  | Some _ -> Edm.Schema.add_derived e schema
                  | None -> (
                      match List.find_opt (fun (_, root) -> root = e.Edm.Entity_type.name) sets with
                      | Some (set, _) -> Edm.Schema.add_root ~set e schema
                      | None -> fail "saved root %s has no entity set" e.Edm.Entity_type.name))
                (Ok schema) ready
            in
            place
              (placed @ List.map (fun (e : Edm.Entity_type.t) -> e.Edm.Entity_type.name) ready)
              blocked schema)
  in
  let* schema = place [] types Edm.Schema.empty in
  List.fold_left
    (fun acc s ->
      let* schema = acc in
      match s with
      | Sexp.List [ Sexp.Atom "rel"; name; e1; e2; m1; m2 ] ->
          let* name = Sexp.as_atom name in
          let* end1 = Sexp.as_atom e1 in
          let* end2 = Sexp.as_atom e2 in
          let* mult1 = Result.bind (Sexp.as_atom m1) mult_of_string in
          let* mult2 = Result.bind (Sexp.as_atom m2) mult_of_string in
          Edm.Schema.add_association { Edm.Association.name; end1; end2; mult1; mult2 } schema
      | _ -> Ok schema)
    (Ok schema) fields

let sexp_of_table (t : Relational.Table.t) =
  Sexp.field "table"
    [
      Sexp.string t.Relational.Table.name;
      Sexp.list
        (List.map
           (fun (c : Relational.Table.column) ->
             Sexp.list
               [ Sexp.string c.Relational.Table.cname; sexp_of_domain c.Relational.Table.domain;
                 Sexp.bool c.Relational.Table.nullable ])
           t.Relational.Table.columns);
      Sexp.list (List.map Sexp.string t.Relational.Table.key);
      Sexp.list
        (List.map
           (fun (fk : Relational.Table.foreign_key) ->
             Sexp.list
               [ Sexp.list (List.map Sexp.string fk.Relational.Table.fk_columns);
                 Sexp.string fk.Relational.Table.ref_table;
                 Sexp.list (List.map Sexp.string fk.Relational.Table.ref_columns) ])
           t.Relational.Table.fks);
    ]

let table_of_sexp s =
  let* args = Sexp.as_field "table" s in
  match args with
  | [ name; cols; key; fks ] ->
      let* name = Sexp.as_atom name in
      let* columns =
        Result.bind (Sexp.as_list cols)
          (Datum.Results.map_ok (function
            | Sexp.List [ c; d; n ] ->
                let* cname = Sexp.as_atom c in
                let* domain = domain_of_sexp d in
                let* nullable = Sexp.as_bool n in
                Ok { Relational.Table.cname; domain; nullable }
            | s -> fail "bad column %s" (Sexp.to_string s)))
      in
      let* key = Result.bind (Sexp.as_list key) (Datum.Results.map_ok Sexp.as_atom) in
      let* fks =
        Result.bind (Sexp.as_list fks)
          (Datum.Results.map_ok (function
            | Sexp.List [ fkc; ref_t; refc ] ->
                let* fk_columns =
                  Result.bind (Sexp.as_list fkc) (Datum.Results.map_ok Sexp.as_atom)
                in
                let* ref_table = Sexp.as_atom ref_t in
                let* ref_columns =
                  Result.bind (Sexp.as_list refc) (Datum.Results.map_ok Sexp.as_atom)
                in
                Ok { Relational.Table.fk_columns; ref_table; ref_columns }
            | s -> fail "bad foreign key %s" (Sexp.to_string s)))
      in
      Ok { Relational.Table.name; columns; key; fks }
  | _ -> fail "bad table %s" (Sexp.to_string s)

let store_fields store = List.map sexp_of_table (Relational.Schema.tables store)

let store_of_sexp s =
  let* tables = Sexp.as_field "store" s in
  List.fold_left
    (fun acc t ->
      let* schema = acc in
      let* tbl = table_of_sexp t in
      Relational.Schema.add_table tbl schema)
    (Ok Relational.Schema.empty) tables

(* -- fragments ---------------------------------------------------------------------- *)

let sexp_of_fragment enc (f : Mapping.Fragment.t) =
  let source =
    match f.Mapping.Fragment.client_source with
    | Mapping.Fragment.Set s -> Sexp.field "set" [ Sexp.string s ]
    | Mapping.Fragment.Assoc a -> Sexp.field "assoc" [ Sexp.string a ]
  in
  let client_cond = reference (enc.cond_ref f.Mapping.Fragment.client_cond) in
  let store_cond = reference (enc.cond_ref f.Mapping.Fragment.store_cond) in
  Sexp.field "frag"
    [
      source;
      client_cond;
      Sexp.list
        (List.map (fun (a, c) -> Sexp.pair (Sexp.string a) (Sexp.string c)) f.Mapping.Fragment.pairs);
      Sexp.string f.Mapping.Fragment.table;
      store_cond;
    ]

let fragment_of_sexp tbl s =
  let* args = Sexp.as_field "frag" s in
  match args with
  | [ source; ccond; pairs; table; scond ] ->
      let* client_source =
        match source with
        | Sexp.List [ Sexp.Atom "set"; s ] ->
            Result.map (fun s -> Mapping.Fragment.Set s) (Sexp.as_atom s)
        | Sexp.List [ Sexp.Atom "assoc"; a ] ->
            Result.map (fun a -> Mapping.Fragment.Assoc a) (Sexp.as_atom a)
        | s -> fail "bad fragment source %s" (Sexp.to_string s)
      in
      let* client_cond = cond_at tbl ccond in
      let* pairs =
        Result.bind (Sexp.as_list pairs)
          (Datum.Results.map_ok (function
            | Sexp.List [ a; c ] ->
                let* a = Sexp.as_atom a in
                let* c = Sexp.as_atom c in
                Ok (a, c)
            | s -> fail "bad pair %s" (Sexp.to_string s)))
      in
      let* table = Sexp.as_atom table in
      let* store_cond = cond_at tbl scond in
      Ok { Mapping.Fragment.client_source; client_cond; pairs; table; store_cond }
  | _ -> fail "bad fragment %s" (Sexp.to_string s)

(* -- the whole state -------------------------------------------------------------------- *)

(* The document is [(state (client ..) (store ..) (terms ..) (fragments ..)
   (query_views ..) (update_views ..))], laid out with one field per line and
   one element of a field per line, so it diffs line by line. *)
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

let save (st : Core.State.t) =
  Obs.Span.with_ ~name:"surface.io.encode" @@ fun () ->
  let enc = encoder () in
  let render_all = List.map Sexp.to_string in
  (* Interning order is document order: fragments, query views, update views. *)
  let fragments =
    List.map (sexp_of_fragment enc) (Mapping.Fragments.to_list st.Core.State.fragments)
  in
  let binding kind (name, v) = Sexp.field kind [ Sexp.string name; sexp_of_view enc v ] in
  let qv = st.Core.State.query_views in
  let entity_views = List.map (binding "for_entity") (Query.View.entity_view_bindings qv) in
  let assoc_views = List.map (binding "for_assoc") (Query.View.assoc_view_bindings qv) in
  let update_views =
    List.map (binding "for_table") (Query.View.update_view_bindings st.Core.State.update_views)
  in
  let text =
    render
      [
        ("client", render_all (client_fields st.Core.State.env.Query.Env.client));
        ("store", render_all (store_fields st.Core.State.env.Query.Env.store));
        ("terms", List.rev enc.terms.entries);
        ("fragments", render_all fragments);
        ("query_views", render_all (entity_views @ assoc_views));
        ("update_views", render_all update_views);
      ]
  in
  Obs.Span.add_attr "bytes" (string_of_int (String.length text));
  Obs.Span.add_attr "terms" (string_of_int enc.terms.count);
  Obs.Span.add_attr "visits" (string_of_int enc.terms.visits);
  text

(* The term table and the other five fields of a document.  A document without
   a table (the tree form) has every term inline. *)
let split doc =
  let* fields = Sexp.as_field "state" doc in
  match fields with
  | [ client_s; store_s; Sexp.List (Sexp.Atom "terms" :: entries); frags_s; qv_s; uv_s ] ->
      Ok (entries, (client_s, store_s, frags_s, qv_s, uv_s))
  | [ client_s; store_s; frags_s; qv_s; uv_s ] -> Ok ([], (client_s, store_s, frags_s, qv_s, uv_s))
  | _ -> fail "bad state document"

let decode entries (client_s, store_s, frags_s, qv_s, uv_s) =
  let* client = client_of_sexp client_s in
  let* store = store_of_sexp store_s in
  let* tbl = table_of_entries entries in
  let* frag_list = Sexp.as_field "fragments" frags_s in
  let* frags = Datum.Results.map_ok (fragment_of_sexp tbl) frag_list in
  let* qv_fields = Sexp.as_field "query_views" qv_s in
  let* query_views =
    List.fold_left
      (fun acc f ->
        let* qv = acc in
        match f with
        | Sexp.List [ Sexp.Atom "for_entity"; ty; v ] ->
            let* ty = Sexp.as_atom ty in
            let* v = view_of_sexp tbl v in
            Ok (Query.View.set_entity_view ty v qv)
        | Sexp.List [ Sexp.Atom "for_assoc"; a; v ] ->
            let* a = Sexp.as_atom a in
            let* v = view_of_sexp tbl v in
            Ok (Query.View.set_assoc_view a v qv)
        | s -> fail "bad query-view entry %s" (Sexp.to_string s))
      (Ok Query.View.no_query_views) qv_fields
  in
  let* uv_fields = Sexp.as_field "update_views" uv_s in
  let* update_views =
    List.fold_left
      (fun acc f ->
        let* uv = acc in
        match f with
        | Sexp.List [ Sexp.Atom "for_table"; t; v ] ->
            let* t = Sexp.as_atom t in
            let* v = view_of_sexp tbl v in
            Ok (Query.View.set_table_view t v uv)
        | s -> fail "bad update-view entry %s" (Sexp.to_string s))
      (Ok Query.View.no_update_views) uv_fields
  in
  Ok
    {
      Core.State.env = Query.Env.make ~client ~store;
      fragments = Mapping.Fragments.of_list frags;
      query_views;
      update_views;
    }

let load text =
  let bytes = ("bytes", string_of_int (String.length text)) in
  let* entries, fields =
    Obs.Span.with_ ~attrs:[ bytes ] ~name:"surface.io.parse" (fun () ->
        let parsed = Result.bind (Sexp.of_string text) split in
        Result.iter
          (fun (entries, _) -> Obs.Span.add_attr "terms" (string_of_int (List.length entries)))
          parsed;
        parsed)
  in
  Obs.Span.with_ ~attrs:[ bytes ] ~name:"surface.io.decode" (fun () ->
      Obs.Span.add_attr "terms" (string_of_int (List.length entries));
      decode entries fields)
