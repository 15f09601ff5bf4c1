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
      | "int" -> Ast.D_int
      | "string" -> Ast.D_string
      | "bool" -> Ast.D_bool
      | "decimal" -> Ast.D_decimal
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
          Ast.D_enum values
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

let cmp_of_op t = function
  | "=" -> Query.Cond.Eq
  | "<>" -> Query.Cond.Neq
  | "<" -> Query.Cond.Lt
  | "<=" -> Query.Cond.Le
  | ">" -> Query.Cond.Gt
  | ">=" -> Query.Cond.Ge
  | s -> fail_at t "unknown comparison operator %s" s

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

(* -- client section ------------------------------------------------------------ *)

let attr st =
  let a_key = try_kw st "key" in
  let a_name = ident st in
  expect st Lexer.Colon;
  let a_domain = domain st in
  let a_non_null =
    if try_kw st "not" then begin
      kw st "null";
      true
    end
    else false
  in
  expect st Lexer.Semi;
  { Ast.a_name; a_domain; a_key; a_non_null = a_non_null || a_key }

let multiplicity st =
  let t = next st in
  match t.Lexer.token with
  | Lexer.Star -> Ast.M_many
  | Lexer.Int 1 -> Ast.M_one
  | Lexer.Int 0 ->
      expect st Lexer.DotDot;
      let t2 = next st in
      (match t2.Lexer.token with
      | Lexer.Int 1 -> Ast.M_zero_one
      | tok -> fail_at t2 "expected 1 after '0..', found %s" (Lexer.describe tok))
  | tok -> fail_at t "expected a multiplicity (*, 1 or 0..1), found %s" (Lexer.describe tok)

let assoc_decl st ~name =
  kw st "between";
  let as_end1 = ident st in
  kw st "and";
  let as_end2 = ident st in
  kw st "multiplicity";
  let as_mult1 = multiplicity st in
  kw st "to";
  let as_mult2 = multiplicity st in
  { Ast.as_name = name; as_end1; as_end2; as_mult1; as_mult2 }

let client_section st =
  let types = ref [] and sets = ref [] and assocs = ref [] in
  expect st Lexer.LBrace;
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "set" then begin
      ignore (next st);
      let s_name = ident st in
      kw st "of";
      let s_root = ident st in
      expect st Lexer.Semi;
      sets := { Ast.s_name; s_root } :: !sets;
      go ()
    end
    else if is_kw t "type" then begin
      ignore (next st);
      let t_name = ident st in
      let t_parent = if peek st |> fun t -> t.Lexer.token = Lexer.Colon then begin
          expect st Lexer.Colon;
          Some (ident st)
        end
        else None
      in
      expect st Lexer.LBrace;
      let attrs = ref [] in
      while peek st |> fun t -> t.Lexer.token <> Lexer.RBrace do
        attrs := attr st :: !attrs
      done;
      expect st Lexer.RBrace;
      types := { Ast.t_name; t_parent; t_attrs = List.rev !attrs } :: !types;
      go ()
    end
    else if is_kw t "assoc" then begin
      ignore (next st);
      let name = ident st in
      let a = assoc_decl st ~name in
      expect st Lexer.Semi;
      assocs := a :: !assocs;
      go ()
    end
    else fail_at t "expected 'set', 'type', 'assoc' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ();
  (List.rev !types, List.rev !sets, List.rev !assocs)

(* -- store section --------------------------------------------------------------- *)

let table_decl st =
  (* caller has consumed 'table' *)
  let tb_name = ident st in
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
      let fk_cols = paren_idents st in
      kw st "references";
      let fk_ref = ident st in
      let fk_ref_cols = paren_idents st in
      expect st Lexer.Semi;
      fks := { Ast.fk_cols; fk_ref; fk_ref_cols } :: !fks;
      go ()
    end
    else begin
      let c_name = ident st in
      expect st Lexer.Colon;
      let c_domain = domain st in
      let c_not_null =
        if try_kw st "not" then begin
          kw st "null";
          true
        end
        else false
      in
      expect st Lexer.Semi;
      cols := { Ast.c_name; c_domain; c_not_null } :: !cols;
      go ()
    end
  in
  go ();
  (match !key with
  | [] -> raise (Fail (0, 0, Printf.sprintf "table %s has no key clause" tb_name))
  | _ -> ());
  { Ast.tb_name; tb_cols = List.rev !cols; tb_key = !key; tb_fks = List.rev !fks }

let store_section st =
  expect st Lexer.LBrace;
  let tables = ref [] in
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "table" then begin
      ignore (next st);
      tables := table_decl st :: !tables;
      go ()
    end
    else fail_at t "expected 'table' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ();
  List.rev !tables

(* -- mapping section --------------------------------------------------------------- *)

let mapping_section st =
  expect st Lexer.LBrace;
  let frags = ref [] in
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.RBrace then ignore (next st)
    else if is_kw t "fragment" then begin
      ignore (next st);
      let fr_source = ident st in
      let fr_cond = if try_kw st "where" then cond st else Query.Cond.True in
      kw st "maps";
      let fr_pairs = pairs st in
      kw st "to";
      let fr_table = ident st in
      let fr_store_cond = if try_kw st "where" then cond st else Query.Cond.True in
      expect st Lexer.Semi;
      frags := { Ast.fr_source; fr_cond; fr_pairs; fr_table; fr_store_cond } :: !frags;
      go ()
    end
    else fail_at t "expected 'fragment' or '}', found %s" (Lexer.describe t.Lexer.token)
  in
  go ();
  List.rev !frags

let model_toks st =
  let types = ref [] and sets = ref [] and assocs = ref [] in
  let tables = ref [] and frags = ref [] in
  let rec go () =
    let t = peek st in
    if t.Lexer.token = Lexer.Eof then ()
    else if is_kw t "client" then begin
      ignore (next st);
      let ty, se, a = client_section st in
      types := !types @ ty;
      sets := !sets @ se;
      assocs := !assocs @ a;
      go ()
    end
    else if is_kw t "store" then begin
      ignore (next st);
      tables := !tables @ store_section st;
      go ()
    end
    else if is_kw t "mapping" then begin
      ignore (next st);
      frags := !frags @ mapping_section st;
      go ()
    end
    else
      fail_at t "expected 'client', 'store' or 'mapping', found %s" (Lexer.describe t.Lexer.token)
  in
  go ();
  { Ast.types = !types; sets = !sets; assocs = !assocs; tables = !tables; fragments = !frags }

(* -- SMO scripts -------------------------------------------------------------------- *)

let type_header st =
  let name = ident st in
  expect st Lexer.Colon;
  let parent = ident st in
  expect st Lexer.LBrace;
  let attrs = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.RBrace do
    attrs := attr st :: !attrs
  done;
  expect st Lexer.RBrace;
  (name, parent, List.rev !attrs)

let reference st =
  kw st "reference";
  if try_kw st "nil" then None else Some (ident st)

let smo st =
  let t = peek st in
  if is_kw t "add" then begin
    ignore (next st);
    let t2 = peek st in
    if is_kw t2 "entity" then begin
      ignore (next st);
      let name, parent, attrs = type_header st in
      let t3 = peek st in
      if is_kw t3 "alpha" then begin
        ignore (next st);
        let alpha = paren_idents st in
        let reference = reference st in
        kw st "to";
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let ps = pairs st in
        expect st Lexer.Semi;
        Ast.S_add_entity { name; parent; attrs; alpha; reference; table; pairs = ps }
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
        let ps = pairs st in
        expect st Lexer.Semi;
        Ast.S_add_entity_tph { name; parent; attrs; table; disc = (disc_col, disc_value); pairs = ps }
      end
      else if is_kw t3 "partitions" then begin
        ignore (next st);
        let reference = reference st in
        let parts = ref [] in
        while is_kw (peek st) "partition" do
          ignore (next st);
          let p_alpha = paren_idents st in
          kw st "where";
          let p_cond = cond st in
          kw st "to";
          kw st "table";
          let p_table = table_decl st in
          kw st "map";
          let p_pairs = pairs st in
          parts := { Ast.p_alpha; p_cond; p_table; p_pairs } :: !parts
        done;
        expect st Lexer.Semi;
        Ast.S_add_entity_part { name; parent; attrs; reference; parts = List.rev !parts }
      end
      else
        fail_at t3 "expected 'alpha', 'tph' or 'partitions', found %s"
          (Lexer.describe t3.Lexer.token)
    end
    else if is_kw t2 "assoc" then begin
      ignore (next st);
      let name = ident st in
      let a = assoc_decl st ~name in
      let t3 = peek st in
      if is_kw t3 "fk" then begin
        ignore (next st);
        kw st "in";
        let table = ident st in
        kw st "map";
        let ps = pairs st in
        expect st Lexer.Semi;
        Ast.S_add_assoc_fk { assoc = a; table; pairs = ps }
      end
      else if is_kw t3 "jt" then begin
        ignore (next st);
        kw st "to";
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let ps = pairs st in
        expect st Lexer.Semi;
        Ast.S_add_assoc_jt { assoc = a; table; pairs = ps }
      end
      else fail_at t3 "expected 'fk' or 'jt', found %s" (Lexer.describe t3.Lexer.token)
    end
    else if is_kw t2 "property" then begin
      ignore (next st);
      let owner_attr = ident st in
      (* Owner and attribute come as one dotted identifier: Employee.Level *)
      let etype, attr_name =
        match String.index_opt owner_attr '.' with
        | Some i ->
            ( String.sub owner_attr 0 i,
              String.sub owner_attr (i + 1) (String.length owner_attr - i - 1) )
        | None -> fail_at t2 "expected Type.Attribute, found %s" owner_attr
      in
      expect st Lexer.Colon;
      let dom = domain st in
      let t3 = peek st in
      if is_kw t3 "in" then begin
        ignore (next st);
        let table = ident st in
        kw st "column";
        let column = ident st in
        expect st Lexer.Semi;
        Ast.S_add_property
          { etype; attr = attr_name; domain = dom; target = Ast.P_existing { table; column } }
      end
      else if is_kw t3 "to" then begin
        ignore (next st);
        kw st "table";
        let table = table_decl st in
        kw st "map";
        let ps = pairs st in
        expect st Lexer.Semi;
        Ast.S_add_property
          { etype; attr = attr_name; domain = dom; target = Ast.P_new { table; pairs = ps } }
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
      let name = ident st in
      expect st Lexer.Semi;
      Ast.S_drop_entity name
    end
    else if is_kw t2 "assoc" then begin
      ignore (next st);
      let name = ident st in
      expect st Lexer.Semi;
      Ast.S_drop_assoc name
    end
    else if is_kw t2 "property" then begin
      ignore (next st);
      let owner_attr = ident st in
      let etype, attr =
        match String.index_opt owner_attr '.' with
        | Some i ->
            ( String.sub owner_attr 0 i,
              String.sub owner_attr (i + 1) (String.length owner_attr - i - 1) )
        | None -> fail_at t2 "expected Type.Attribute, found %s" owner_attr
      in
      expect st Lexer.Semi;
      Ast.S_drop_property { etype; attr }
    end
    else
      fail_at t2 "expected 'entity', 'assoc' or 'property', found %s"
        (Lexer.describe t2.Lexer.token)
  end
  else if is_kw t "widen" then begin
    ignore (next st);
    kw st "property";
    let owner_attr = ident st in
    let etype, attr =
      match String.index_opt owner_attr '.' with
      | Some i ->
          ( String.sub owner_attr 0 i,
            String.sub owner_attr (i + 1) (String.length owner_attr - i - 1) )
      | None -> fail_at t "expected Type.Attribute, found %s" owner_attr
    in
    expect st Lexer.Colon;
    let dom = domain st in
    expect st Lexer.Semi;
    Ast.S_widen { etype; attr; domain = dom }
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
    Ast.S_set_mult { assoc; mult1 = m1; mult2 = m2 }
  end
  else if is_kw t "refactor" then begin
    ignore (next st);
    let name = ident st in
    expect st Lexer.Semi;
    Ast.S_refactor name
  end
  else
    fail_at t "expected 'add', 'drop', 'widen', 'modify' or 'refactor', found %s"
      (Lexer.describe t.Lexer.token)

let script_toks st =
  let out = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.Eof do
    out := smo st :: !out
  done;
  List.rev !out

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

let query_toks st =
  kw st "select";
  let items =
    if peek st |> fun t -> t.Lexer.token = Lexer.Star then begin
      ignore (next st);
      None
    end
    else
      Some
        (sep_list st ~sep:Lexer.Comma (fun st ->
             let si_col = ident st in
             let si_as = if try_kw st "as" then Some (ident st) else None in
             { Ast.si_col; si_as }))
  in
  kw st "from";
  let q_source = ident st in
  let q_where = if try_kw st "where" then Some (cond st) else None in
  { Ast.q_items = items; q_source; q_where }

let data_toks st =
  kw st "data";
  expect st Lexer.LBrace;
  let out = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.RBrace do
    let d_source = ident st in
    expect st Lexer.Colon;
    let d_type =
      if peek st |> fun t -> t.Lexer.token = Lexer.LParen then None else Some (ident st)
    in
    let d_bindings = bindings st in
    expect st Lexer.Semi;
    out := { Ast.d_source; d_type; d_bindings } :: !out
  done;
  expect st Lexer.RBrace;
  List.rev !out

let dml_stmt st =
  let t = peek st in
  if is_kw t "insert" then begin
    ignore (next st);
    let set = ident st in
    let etype = ident st in
    let bs = bindings st in
    expect st Lexer.Semi;
    Ast.M_insert { set; etype; bindings = bs }
  end
  else if is_kw t "update" then begin
    ignore (next st);
    let set = ident st in
    let key = bindings st in
    kw st "set";
    let changes = bindings st in
    expect st Lexer.Semi;
    Ast.M_update { set; key; changes }
  end
  else if is_kw t "delete" then begin
    ignore (next st);
    let set = ident st in
    let key = bindings st in
    expect st Lexer.Semi;
    Ast.M_delete { set; key }
  end
  else if is_kw t "link" then begin
    ignore (next st);
    let assoc = ident st in
    let bs = bindings st in
    expect st Lexer.Semi;
    Ast.M_link { assoc; bindings = bs }
  end
  else if is_kw t "unlink" then begin
    ignore (next st);
    let assoc = ident st in
    let bs = bindings st in
    expect st Lexer.Semi;
    Ast.M_unlink { assoc; bindings = bs }
  end
  else
    fail_at t "expected 'insert', 'update', 'delete', 'link' or 'unlink', found %s"
      (Lexer.describe t.Lexer.token)

let dml_toks st =
  let out = ref [] in
  while peek st |> fun t -> t.Lexer.token <> Lexer.Eof do
    out := dml_stmt st :: !out
  done;
  List.rev !out

(* -- entry points --------------------------------------------------------------------- *)

let run input f =
  match Lexer.tokenize input with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks } in
      match f st with
      | v ->
          let t = peek st in
          if t.Lexer.token = Lexer.Eof then Ok v
          else
            Error
              (Printf.sprintf "line %d, column %d: trailing input (%s)" t.Lexer.line t.Lexer.col
                 (Lexer.describe t.Lexer.token))
      | exception Fail (l, c, msg) -> Error (Printf.sprintf "line %d, column %d: %s" l c msg))

let model input = run input model_toks
let script input = run input script_toks
let condition input = run input cond
let query input = run input query_toks
let data input = run input data_toks
let dml input = run input dml_toks
