let ( let* ) = Result.bind

exception Fail of int * int * string

type state = { mutable toks : Lexer.spanned list }

let peek st = match st.toks with [] -> assert false | t :: _ -> t

(* The lexer ends every token list with [Eof], and [next] never consumes
   it, so [peek] always has a token to return. *)
let next st =
  let t = peek st in
  (match st.toks with [] | [ _ ] -> () | _ :: rest -> st.toks <- rest);
  t

let fail_at (t : Lexer.spanned) fmt =
  Format.kasprintf (fun msg -> raise (Fail (t.Lexer.line, t.Lexer.col, msg))) fmt

let expect st token =
  let t = next st in
  if t.Lexer.token = token then ()
  else fail_at t "expected %s, found %s" (Lexer.describe token) (Lexer.describe t.Lexer.token)

let ident st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.Ident s -> s
  | tok -> fail_at t "expected an identifier, found %s" (Lexer.describe tok)

(* Keywords are ordinary identifiers, matched case-insensitively. *)
let is_kw (t : Lexer.spanned) kw =
  match t.Lexer.token with
  | Lexer.Ident s -> String.lowercase_ascii s = kw
  | _ -> false

let kw st k =
  let t = next st in
  if is_kw t k then () else fail_at t "expected '%s', found %s" k (Lexer.describe t.Lexer.token)

let try_kw st k = if is_kw (peek st) k then (ignore (next st); true) else false

let sep_list st ~sep item =
  let first = item st in
  let rec go acc =
    if peek st |> fun t -> t.Lexer.token = sep then begin
      ignore (next st);
      go (item st :: acc)
    end
    else List.rev acc
  in
  go [ first ]

let paren_idents st =
  expect st Lexer.LParen;
  let ids = sep_list st ~sep:Lexer.Comma ident in
  expect st Lexer.RParen;
  ids

let pairs st =
  expect st Lexer.LParen;
  let pair st =
    let a = ident st in
    expect st Lexer.Arrow;
    let b = ident st in
    (a, b)
  in
  let ps = sep_list st ~sep:Lexer.Comma pair in
  expect st Lexer.RParen;
  ps

(* -- domains and literals --------------------------------------------------- *)

let domain st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.Ident s -> (
      match String.lowercase_ascii s with
      | "int" -> Datum.Domain.Int
      | "string" -> Datum.Domain.String
      | "bool" -> Datum.Domain.Bool
      | "decimal" -> Datum.Domain.Decimal
      | "enum" ->
          expect st Lexer.LParen;
          let values =
            sep_list st ~sep:Lexer.Comma (fun st ->
                let t = next st in
                match t.Lexer.token with
                | Lexer.Str v -> v
                | Lexer.Ident v -> v
                | tok -> fail_at t "expected an enum value, found %s" (Lexer.describe tok))
          in
          expect st Lexer.RParen;
          Datum.Domain.Enum values
      | _ -> fail_at t "expected a domain (int/string/bool/decimal/enum), found %s" s)
  | tok -> fail_at t "expected a domain, found %s" (Lexer.describe tok)

let literal st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.Int i -> Datum.Value.Int i
  | Lexer.Float f -> Datum.Value.Decimal f
  | Lexer.Str s -> Datum.Value.String s
  | Lexer.Ident s when String.lowercase_ascii s = "true" -> Datum.Value.Bool true
  | Lexer.Ident s when String.lowercase_ascii s = "false" -> Datum.Value.Bool false
  | Lexer.Ident s when String.lowercase_ascii s = "null" -> Datum.Value.Null
  | tok -> fail_at t "expected a literal, found %s" (Lexer.describe tok)

(* -- conditions -------------------------------------------------------------- *)

let cmp_of_op t s =
  match Query.Cond.cmp_of_string s with
  | Some op -> op
  | None -> fail_at t "unknown comparison operator %s" s

let rec cond st =
  let lhs = cond_and st in
  if try_kw st "or" then Query.Cond.Or (lhs, cond st) else lhs

and cond_and st =
  let lhs = cond_atom st in
  if try_kw st "and" then Query.Cond.And (lhs, cond_and st) else lhs

and cond_atom st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.LParen ->
      ignore (next st);
      let c = cond st in
      expect st Lexer.RParen;
      c
  | Lexer.Ident s when String.lowercase_ascii s = "true" -> ignore (next st); Query.Cond.True
  | Lexer.Ident s when String.lowercase_ascii s = "false" -> ignore (next st); Query.Cond.False
  | Lexer.Ident s when String.lowercase_ascii s = "is" ->
      (* IS OF (ONLY)? T *)
      ignore (next st);
      kw st "of";
      if try_kw st "only" then Query.Cond.Is_of_only (ident st)
      else Query.Cond.Is_of (ident st)
  | Lexer.Ident _ -> (
      let a = ident st in
      let t = next st in
      match t.Lexer.token with
      | Lexer.Ident s when String.lowercase_ascii s = "is" ->
          if try_kw st "not" then begin
            kw st "null";
            Query.Cond.Is_not_null a
          end
          else begin
            kw st "null";
            Query.Cond.Is_null a
          end
      | Lexer.Op op -> Query.Cond.Cmp (a, cmp_of_op t op, literal st)
      | tok -> fail_at t "expected 'is' or a comparison after %s, found %s" a (Lexer.describe tok))
  | tok -> fail_at t "expected a condition, found %s" (Lexer.describe tok)

(* -- literals of Decimal attributes and columns ----------------------------- *)

(* Each Int bound to an attribute or column known to be Decimal becomes the
   equal Decimal ([Datum.Value.of_domain]): the value order puts every Int
   below every Decimal. *)
let coerce domain bindings =
  List.map
    (fun (c, v) -> (c, match domain c with Some d -> Datum.Value.of_domain d v | None -> v))
    bindings

let type_domain client etype a =
  if Edm.Schema.mem_type client etype then Edm.Schema.attribute_domain client etype a else None

let set_domain client set a =
  Option.bind (Edm.Schema.set_root client set) (fun root ->
      Edm.Schema.hierarchy_attribute client root a)

let assoc_domain client assoc a =
  Option.bind (Edm.Schema.find_association client assoc) (fun x ->
      List.assoc_opt a (Edm.Schema.association_attributes client x))

let table_domain store table c =
  Option.bind (Relational.Schema.find_table store table) (fun t -> Relational.Table.domain_of t c)

(* -- client section ------------------------------------------------------------ *)

let not_null st =
  try_kw st "not"
  && begin
    kw st "null";
    true
  end

(* A type's attribute block: its attributes, its key, and its non-null
   attributes (the key's among them), each in document order. *)
let attrs st =
  expect st Lexer.LBrace;
  let rec go declared key non_null =
    if peek st |> fun t -> t.Lexer.token = Lexer.RBrace then begin
      ignore (next st);
      (List.rev declared, List.rev key, List.rev non_null)
    end
    else begin
      let is_key = try_kw st "key" in
      let a = ident st in
      expect st Lexer.Colon;
      let d = domain st in
      let nn = not_null st || is_key in
      expect st Lexer.Semi;
      go ((a, d) :: declared) (if is_key then a :: key else key)
        (if nn then a :: non_null else non_null)
    end
  in
  go [] [] []

(* A client type declaration; the caller has consumed 'type'. *)
let type_decl st =
  let at = peek st in
  let name = ident st in
  let parent =
    if peek st |> fun t -> t.Lexer.token = Lexer.Colon then begin
      expect st Lexer.Colon;
      Some (ident st)
    end
    else None
  in
  let declared, key, non_null = attrs st in
  match parent with
  | None ->
      if key = [] then fail_at at "root type %s declares no key attribute" name;
      let non_null = List.filter (fun a -> not (List.mem a key)) non_null in
      Edm.Entity_type.root ~name ~key ~non_null declared
  | Some parent ->
      if key <> [] then fail_at at "derived type %s must not declare key attributes" name;
      Edm.Entity_type.derived ~name ~parent ~non_null declared

let multiplicity st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.Star -> Edm.Association.Many
  | Lexer.Int 1 -> Edm.Association.One
  | Lexer.Int 0 ->
      expect st Lexer.DotDot;
      let t2 = next st in
      (match t2.Lexer.token with
      | Lexer.Int 1 -> Edm.Association.Zero_or_one
      | tok -> fail_at t2 "expected 1 after '0..', found %s" (Lexer.describe tok))
  | tok -> fail_at t "expected a multiplicity (*, 1 or 0..1), found %s" (Lexer.describe tok)

let assoc_decl st ~name =
  kw st "between";
  let end1 = ident st in
  kw st "and";
  let end2 = ident st in
  kw st "multiplicity";
  let mult1 = multiplicity st in
  kw st "to";
  let mult2 = multiplicity st in
  { Edm.Association.name; end1; end2; mult1; mult2 }

(* A model file's declarations, each list in reverse document order.  A
   fragment waits for both schemas: its source is an entity set or an
   association of the client, and its literals are coerced by the domains
   of its set and table.  Each [_at] list holds the name tokens of the
   declarations in the list it follows, in the same order: where a schema
   builder's error about one of them is reported. *)
type decls = {
  mutable types : Edm.Entity_type.t list;
  mutable types_at : Lexer.spanned list;
  mutable sets : (string * string) list;
  mutable sets_at : Lexer.spanned list;
  mutable assocs : Edm.Association.t list;
  mutable assocs_at : Lexer.spanned list;
  mutable tables : Relational.Table.t list;
  mutable tables_at : Lexer.spanned list;
  mutable fragments : (Edm.Schema.t -> Relational.Schema.t -> Mapping.Fragment.t) list;
}

let client_section st d =
  expect st Lexer.LBrace;
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "set" then begin
      ignore (next st);
      let at = peek st in
      let set = ident st in
      kw st "of";
      let root = ident st in
      expect st Lexer.Semi;
      d.sets <- (set, root) :: d.sets;
      d.sets_at <- at :: d.sets_at;
      go ()
    end
    else if is_kw t "type" then begin
      ignore (next st);
      let at = peek st in
      let e = type_decl st in
      d.types <- e :: d.types;
      d.types_at <- at :: d.types_at;
      go ()
    end
    else if is_kw t "assoc" then begin
      ignore (next st);
      let at = peek st in
      let name = ident st in
      let a = assoc_decl st ~name in
      expect st Lexer.Semi;
      d.assocs <- a :: d.assocs;
      d.assocs_at <- at :: d.assocs_at;
      go ()
    end
    else fail_at t "expected 'set', 'type', 'assoc' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ()

(* -- store section --------------------------------------------------------------- *)

let table_decl st =
  (* caller has consumed 'table' *)
  let at = peek st in
  let name = ident st in
  expect st Lexer.LBrace;
  let cols = ref [] and key = ref [] and fks = ref [] in
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "key" then begin
      ignore (next st);
      key := paren_idents st;
      expect st Lexer.Semi;
      go ()
    end
    else if is_kw t "fk" then begin
      ignore (next st);
      let fk_columns = paren_idents st in
      kw st "references";
      let ref_table = ident st in
      let ref_columns = paren_idents st in
      expect st Lexer.Semi;
      fks := { Relational.Table.fk_columns; ref_table; ref_columns } :: !fks;
      go ()
    end
    else begin
      let c = ident st in
      expect st Lexer.Colon;
      let d = domain st in
      let null = if not_null st then `Not_null else `Null in
      expect st Lexer.Semi;
      cols := (c, d, null) :: !cols;
      go ()
    end
  in
  go ();
  let tbl = Relational.Table.make ~name ~key:!key ~fks:(List.rev !fks) (List.rev !cols) in
  match Relational.Table.check tbl with Ok () -> tbl | Error e -> fail_at at "%s" e

let store_section st d =
  expect st Lexer.LBrace;
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "table" then begin
      ignore (next st);
      let at = peek st in
      let tbl = table_decl st in
      d.tables <- tbl :: d.tables;
      d.tables_at <- at :: d.tables_at;
      go ()
    end
    else fail_at t "expected 'table' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ()

(* -- mapping section --------------------------------------------------------------- *)

let fragment_decl st =
  (* caller has consumed 'fragment' *)
  let at = peek st in
  let source = ident st in
  let client_cond = if try_kw st "where" then cond st else Query.Cond.True in
  kw st "maps";
  let ps = pairs st in
  kw st "to";
  let table = ident st in
  let store_cond = if try_kw st "where" then cond st else Query.Cond.True in
  expect st Lexer.Semi;
  fun client store ->
    let store_cond = Query.Cond.with_domains (table_domain store table) store_cond in
    if Edm.Schema.set_root client source <> None then
      let cond = Query.Cond.with_domains (set_domain client source) client_cond in
      Mapping.Fragment.entity ~set:source ~cond ~table ~store_cond ps
    else if Edm.Schema.find_association client source = None then
      fail_at at "fragment source %s is neither an entity set nor an association" source
    else if not (Query.Cond.equal client_cond Query.Cond.True) then
      fail_at at "association fragment %s cannot carry a client-side condition" source
    else Mapping.Fragment.assoc ~assoc:source ~table ~store_cond ps

let mapping_section st d =
  expect st Lexer.LBrace;
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "fragment" then begin
      ignore (next st);
      d.fragments <- fragment_decl st :: d.fragments;
      go ()
    end
    else fail_at t "expected 'fragment' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ()

let model_toks st =
  let d =
    { types = []; types_at = []; sets = []; sets_at = []; assocs = []; assocs_at = []; tables = []; tables_at = [];
      fragments = [] }
  in
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.Eof then ()
    else begin
      ignore (next st);
      if is_kw t "client" then client_section st d
      else if is_kw t "store" then store_section st d
      else if is_kw t "mapping" then mapping_section st d
      else
        fail_at t "expected 'client', 'store' or 'mapping', found %s" (Lexer.describe t.Lexer.token);
      go ()
    end
  in
  go ();
  d

(* A schema builder's error [msg] at the declaration it refuses, the [i]th
   in document order of those whose name tokens [at] holds, last first. *)
let located at i msg = fail_at (List.nth at (List.length at - 1 - i)) "%s" msg

let client_schema d =
  match Edm.Schema.of_declarations (List.rev d.types) ~sets:(List.rev d.sets) (List.rev d.assocs) with
  | Ok client -> client
  | Error (Edm.Schema.Type i, msg) -> located d.types_at i msg
  | Error (Edm.Schema.Set i, msg) -> located d.sets_at i msg
  | Error (Edm.Schema.Association i, msg) -> located d.assocs_at i msg

let model_of d =
  let client = client_schema d in
  let store =
    match Relational.Schema.of_tables (List.rev d.tables) with
    | Ok store -> store
    | Error (i, msg) -> located d.tables_at i msg
  in
  let env = Query.Env.make ~client ~store in
  let frags =
    List.fold_right
      (fun f frags -> Mapping.Fragments.add (f client store) frags)
      d.fragments Mapping.Fragments.empty
  in
  let* () = Mapping.Fragments.well_formed env frags in
  Ok (env, frags)

(* -- SMO scripts -------------------------------------------------------------------- *)

(* The new type of an 'add entity' statement: its key attributes are only
   non-null, since a derived type has no key. *)
let new_entity st =
  let name = ident st in
  expect st Lexer.Colon;
  let parent = ident st in
  let declared, _, non_null = attrs st in
  Edm.Entity_type.derived ~name ~parent ~non_null declared

let reference st =
  kw st "reference";
  if try_kw st "nil" then None else Some (ident st)

(* [Type.Attribute] as one dotted identifier, split at its first dot. *)
let owner_attr st ~at =
  let s = ident st in
  match String.index_opt s '.' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> fail_at at "expected Type.Attribute, found %s" s

let smo st =
  let t = peek st in
  if is_kw t "add" then begin
    ignore (next st);
    let t2 = peek st in
    if is_kw t2 "entity" then begin
      ignore (next st);
      let entity = new_entity st in
      let t3 = peek st in
      if is_kw t3 "alpha" then begin
        ignore (next st);
        let alpha = paren_idents st in
        let p_ref = reference st in
        kw st "to";
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let fmap = pairs st in
        expect st Lexer.Semi;
        Core.Smo.Add_entity { entity; alpha; p_ref; table; fmap }
      end
      else if is_kw t3 "tph" then begin
        ignore (next st);
        kw st "in";
        let table = ident st in
        kw st "discriminator";
        let disc_col = ident st in
        (match (next st).Lexer.token with
        | Lexer.Op "=" -> ()
        | tok -> fail_at t3 "expected '=' after the discriminator column, found %s" (Lexer.describe tok));
        let disc_value = literal st in
        kw st "map";
        let fmap = pairs st in
        expect st Lexer.Semi;
        Core.Smo.Add_entity_tph { entity; table; fmap; discriminator = (disc_col, disc_value) }
      end
      else if is_kw t3 "partitions" then begin
        ignore (next st);
        let p_ref = reference st in
        let parts = ref [] in
        while is_kw (peek st) "partition" do
          ignore (next st);
          let part_alpha = paren_idents st in
          kw st "where";
          let part_cond = cond st in
          kw st "to";
          kw st "table";
          let part_table = table_decl st in
          kw st "map";
          let part_fmap = pairs st in
          parts := { Core.Add_entity_part.part_alpha; part_cond; part_table; part_fmap } :: !parts
        done;
        expect st Lexer.Semi;
        Core.Smo.Add_entity_part { entity; p_ref; parts = List.rev !parts }
      end
      else
        fail_at t3 "expected 'alpha', 'tph' or 'partitions', found %s"
          (Lexer.describe t3.Lexer.token)
    end
    else if is_kw t2 "assoc" then begin
      ignore (next st);
      let name = ident st in
      let assoc = assoc_decl st ~name in
      let t3 = peek st in
      if is_kw t3 "fk" then begin
        ignore (next st);
        kw st "in";
        let table = ident st in
        kw st "map";
        let fmap = pairs st in
        expect st Lexer.Semi;
        Core.Smo.Add_assoc_fk { assoc; table; fmap }
      end
      else if is_kw t3 "jt" then begin
        ignore (next st);
        kw st "to";
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let fmap = pairs st in
        expect st Lexer.Semi;
        Core.Smo.Add_assoc_jt { assoc; table; fmap }
      end
      else fail_at t3 "expected 'fk' or 'jt', found %s" (Lexer.describe t3.Lexer.token)
    end
    else if is_kw t2 "property" then begin
      ignore (next st);
      let etype, a = owner_attr st ~at:t2 in
      expect st Lexer.Colon;
      let attr = (a, domain st) in
      let t3 = peek st in
      if is_kw t3 "in" then begin
        ignore (next st);
        let table = ident st in
        kw st "column";
        let column = ident st in
        expect st Lexer.Semi;
        Core.Smo.Add_property
          { etype; attr; target = Core.Add_property.To_existing_table { table; column } }
      end
      else if is_kw t3 "to" then begin
        ignore (next st);
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let fmap = pairs st in
        expect st Lexer.Semi;
        Core.Smo.Add_property
          { etype; attr; target = Core.Add_property.To_new_table { table; fmap } }
      end
      else fail_at t3 "expected 'in' or 'to', found %s" (Lexer.describe t3.Lexer.token)
    end
    else
      fail_at t2 "expected 'entity', 'assoc' or 'property', found %s"
        (Lexer.describe t2.Lexer.token)
  end
  else if is_kw t "drop" then begin
    ignore (next st);
    let t2 = peek st in
    if is_kw t2 "entity" then begin
      ignore (next st);
      let etype = ident st in
      expect st Lexer.Semi;
      Core.Smo.Drop_entity { etype }
    end
    else if is_kw t2 "assoc" then begin
      ignore (next st);
      let assoc = ident st in
      expect st Lexer.Semi;
      Core.Smo.Drop_association { assoc }
    end
    else if is_kw t2 "property" then begin
      ignore (next st);
      let etype, attr = owner_attr st ~at:t2 in
      expect st Lexer.Semi;
      Core.Smo.Drop_property { etype; attr }
    end
    else
      fail_at t2 "expected 'entity', 'assoc' or 'property', found %s"
        (Lexer.describe t2.Lexer.token)
  end
  else if is_kw t "widen" then begin
    ignore (next st);
    kw st "property";
    let etype, attr = owner_attr st ~at:t in
    expect st Lexer.Colon;
    let domain = domain st in
    expect st Lexer.Semi;
    Core.Smo.Widen_attribute { etype; attr; domain }
  end
  else if is_kw t "modify" then begin
    ignore (next st);
    kw st "assoc";
    let assoc = ident st in
    kw st "multiplicity";
    let m1 = multiplicity st in
    kw st "to";
    let m2 = multiplicity st in
    expect st Lexer.Semi;
    Core.Smo.Set_multiplicity { assoc; mult = (m1, m2) }
  end
  else if is_kw t "refactor" then begin
    ignore (next st);
    let assoc = ident st in
    expect st Lexer.Semi;
    Core.Smo.Refactor { assoc }
  end
  else
    fail_at t "expected 'add', 'drop', 'widen', 'modify' or 'refactor', found %s"
      (Lexer.describe t.Lexer.token)

let script_toks st =
  let out = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.Eof do
    out := smo st :: !out
  done;
  Ok (List.rev !out)

(* -- queries, data and DML -------------------------------------------------- *)

let bindings st =
  expect st Lexer.LParen;
  let one st =
    let c = ident st in
    let t = next st in
    (match t.Lexer.token with
    | Lexer.Op "=" -> ()
    | tok -> fail_at t "expected '=' after %s, found %s" c (Lexer.describe tok));
    (c, literal st)
  in
  let bs = sep_list st ~sep:Lexer.Comma one in
  expect st Lexer.RParen;
  bs

let query_toks env st =
  kw st "select";
  let items =
    if peek st |> fun t -> t.Lexer.token = Lexer.Star then begin
      ignore (next st);
      None
    end
    else
      Some
        (sep_list st ~sep:Lexer.Comma (fun st ->
             let c = ident st in
             if try_kw st "as" then Query.Algebra.col_as c (ident st) else Query.Algebra.col c))
  in
  kw st "from";
  let at = peek st in
  let source = ident st in
  let where = if try_kw st "where" then Some (cond st) else None in
  let client = env.Query.Env.client in
  let source, domain =
    if Edm.Schema.set_root client source <> None then
      (Query.Algebra.Entity_set source, set_domain client source)
    else if Edm.Schema.find_association client source <> None then
      (Query.Algebra.Assoc_set source, assoc_domain client source)
    else fail_at at "unknown source %s (expected an entity set or association)" source
  in
  let selected =
    match where with
    | None -> Query.Algebra.Scan source
    | Some c -> Query.Algebra.Select (Query.Cond.with_domains domain c, Query.Algebra.Scan source)
  in
  let* algebra =
    match items with
    | None ->
        (* select *: all columns except the dynamic-type pseudo column. *)
        let* cols = Query.Algebra.infer env selected in
        Ok
          (Query.Algebra.project_cols
             (List.filter (fun c -> c <> Query.Env.type_column) cols)
             selected)
    | Some items -> Ok (Query.Algebra.Project (items, selected))
  in
  let* _ = Query.Algebra.infer env algebra in
  Ok algebra

let data_toks env st =
  let client = env.Query.Env.client in
  kw st "data";
  expect st Lexer.LBrace;
  let inst = ref Edm.Instance.empty in
  while peek st |> fun t -> t.Lexer.token <> Lexer.RBrace do
    let at = peek st in
    let source = ident st in
    expect st Lexer.Colon;
    let etype =
      if peek st |> fun t -> t.Lexer.token = Lexer.LParen then None else Some (ident st)
    in
    let bs = bindings st in
    expect st Lexer.Semi;
    inst :=
      match etype with
      | Some etype ->
          if Edm.Schema.set_root client source = None then
            fail_at at "unknown entity set %s" source;
          let entity = Edm.Instance.entity ~etype (coerce (type_domain client etype) bs) in
          Edm.Instance.add_entity ~set:source entity !inst
      | None ->
          if Edm.Schema.find_association client source = None then
            fail_at at "unknown association %s" source;
          let link = Datum.Row.of_list (coerce (assoc_domain client source) bs) in
          Edm.Instance.add_link ~assoc:source link !inst
  done;
  expect st Lexer.RBrace;
  let* () = Edm.Instance.conforms client !inst in
  Ok !inst

(* Attribute domains are read from [env]'s client schema; an unknown set,
   type or association is left to the translator to report. *)
let dml_stmt env st =
  let client = env.Query.Env.client in
  let row domain bindings = Datum.Row.of_list (coerce domain bindings) in
  let t = peek st in
  let stmt =
    if is_kw t "insert" then begin
      ignore (next st);
      let set = ident st in
      let etype = ident st in
      let bs = bindings st in
      let entity = Edm.Instance.entity ~etype (coerce (type_domain client etype) bs) in
      Dml.Delta.Insert_entity { set; entity }
    end
    else if is_kw t "update" then begin
      ignore (next st);
      let set = ident st in
      let key = bindings st in
      kw st "set";
      let changes = bindings st in
      Dml.Delta.Update_entity
        { set; key = row (set_domain client set) key; changes = coerce (set_domain client set) changes }
    end
    else if is_kw t "delete" then begin
      ignore (next st);
      let set = ident st in
      Dml.Delta.Delete_entity { set; key = row (set_domain client set) (bindings st) }
    end
    else if is_kw t "link" then begin
      ignore (next st);
      let assoc = ident st in
      Dml.Delta.Insert_link { assoc; link = row (assoc_domain client assoc) (bindings st) }
    end
    else if is_kw t "unlink" then begin
      ignore (next st);
      let assoc = ident st in
      Dml.Delta.Delete_link { assoc; link = row (assoc_domain client assoc) (bindings st) }
    end
    else
      fail_at t "expected 'insert', 'update', 'delete', 'link' or 'unlink', found %s"
        (Lexer.describe t.Lexer.token)
  in
  expect st Lexer.Semi;
  stmt

let dml_toks env st =
  let out = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.Eof do
    out := dml_stmt env st :: !out
  done;
  Ok (List.rev !out)

(* -- entry points --------------------------------------------------------------------- *)

(* [f] reads the tokens and builds its value; a declaration it cannot build
   fails at the declaration's position, a whole-model check without one. *)
let run input f =
  match Lexer.tokenize input with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      match f st with
      | Error _ as e -> e
      | Ok _ as v ->
          let t = peek st in
          if t.Lexer.token = Lexer.Eof then v
          else
            Error
              (Printf.sprintf "line %d, column %d: trailing input (%s)" t.Lexer.line t.Lexer.col
                 (Lexer.describe t.Lexer.token))
      | exception Fail (l, c, msg) -> Error (Printf.sprintf "line %d, column %d: %s" l c msg))

let model input = run input (fun st -> model_of (model_toks st))
let client input = run input (fun st -> Ok (client_schema (model_toks st)))
let script input = run input script_toks
let condition input = run input (fun st -> Ok (cond st))
let query env input = run input (query_toks env)
let data env input = run input (data_toks env)
let dml env input = run input (dml_toks env)
