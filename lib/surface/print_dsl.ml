let buf_add = Buffer.add_string

(* Only the escapes [Lexer] reads back; every other byte is written as is. *)
let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> buf_add b "\\\""
      | '\\' -> buf_add b "\\\\"
      | '\n' -> buf_add b "\\n"
      | '\t' -> buf_add b "\\t"
      | '\r' -> buf_add b "\\r"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let literal = function
  | Datum.Value.Null -> "null"
  | Datum.Value.Int i -> string_of_int i
  | Datum.Value.String s -> quote s
  | Datum.Value.Bool true -> "true"
  | Datum.Value.Bool false -> "false"
  | Datum.Value.Decimal f -> Datum.Value.decimal f

let cmp = function
  | Query.Cond.Eq -> "="
  | Query.Cond.Neq -> "<>"
  | Query.Cond.Lt -> "<"
  | Query.Cond.Le -> "<="
  | Query.Cond.Gt -> ">"
  | Query.Cond.Ge -> ">="

(* Precedence: atoms > and > or; parenthesize only when needed. *)
let cond_prec = function
  | Query.Cond.Or _ -> 0
  | Query.Cond.And _ -> 1
  | Query.Cond.True | Query.Cond.False | Query.Cond.Is_of _ | Query.Cond.Is_of_only _
  | Query.Cond.Is_null _ | Query.Cond.Is_not_null _ | Query.Cond.Cmp _ ->
      2

let rec cond_at level c =
  let s =
    match c with
    | Query.Cond.True -> "true"
    | Query.Cond.False -> "false"
    | Query.Cond.Is_of e -> "is of " ^ e
    | Query.Cond.Is_of_only e -> "is of only " ^ e
    | Query.Cond.Is_null a -> a ^ " is null"
    | Query.Cond.Is_not_null a -> a ^ " is not null"
    | Query.Cond.Cmp (a, op, v) -> Printf.sprintf "%s %s %s" a (cmp op) (literal v)
    (* The parser is right-associative, so the left operand prints one
       level tighter to preserve tree structure on reparse. *)
    | Query.Cond.And (x, y) -> cond_at 2 x ^ " and " ^ cond_at 1 y
    | Query.Cond.Or (x, y) -> cond_at 1 x ^ " or " ^ cond_at 0 y
  in
  if cond_prec c < level then "(" ^ s ^ ")" else s

let cond c = cond_at 0 c

let domain = function
  | Datum.Domain.Int -> "int"
  | Datum.Domain.String -> "string"
  | Datum.Domain.Bool -> "bool"
  | Datum.Domain.Decimal -> "decimal"
  | Datum.Domain.Enum values ->
      "enum (" ^ String.concat ", " (List.map quote values) ^ ")"

let entity_type ~key (e : Edm.Entity_type.t) =
  let b = Buffer.create 128 in
  buf_add b
    (match e.Edm.Entity_type.parent with
    | None -> Printf.sprintf "  type %s {\n" e.Edm.Entity_type.name
    | Some p -> Printf.sprintf "  type %s : %s {\n" e.Edm.Entity_type.name p);
  List.iter
    (fun (a, d) ->
      let is_key = e.Edm.Entity_type.parent = None && List.mem a key in
      let non_null = List.mem a e.Edm.Entity_type.non_null in
      buf_add b
        (Printf.sprintf "    %s%s : %s%s;\n"
           (if is_key then "key " else "")
           a (domain d)
           (if non_null && not is_key then " not null" else "")))
    e.Edm.Entity_type.declared;
  buf_add b "  }\n";
  Buffer.contents b

let table (t : Relational.Table.t) =
  let b = Buffer.create 128 in
  buf_add b (Printf.sprintf "  table %s {\n" t.Relational.Table.name);
  List.iter
    (fun (c : Relational.Table.column) ->
      buf_add b
        (Printf.sprintf "    %s : %s%s;\n" c.Relational.Table.cname
           (domain c.Relational.Table.domain)
           (if c.Relational.Table.nullable then "" else " not null")))
    t.Relational.Table.columns;
  buf_add b (Printf.sprintf "    key (%s);\n" (String.concat ", " t.Relational.Table.key));
  List.iter
    (fun (fk : Relational.Table.foreign_key) ->
      buf_add b
        (Printf.sprintf "    fk (%s) references %s (%s);\n"
           (String.concat ", " fk.Relational.Table.fk_columns)
           fk.Relational.Table.ref_table
           (String.concat ", " fk.Relational.Table.ref_columns)))
    t.Relational.Table.fks;
  buf_add b "  }\n";
  Buffer.contents b

let mult = function
  | Edm.Association.One -> "1"
  | Edm.Association.Zero_or_one -> "0..1"
  | Edm.Association.Many -> "*"

let fragment (f : Mapping.Fragment.t) =
  let source =
    match f.Mapping.Fragment.client_source with
    | Mapping.Fragment.Set s -> s
    | Mapping.Fragment.Assoc a -> a
  in
  let client_where =
    if Query.Cond.equal f.Mapping.Fragment.client_cond Query.Cond.True then ""
    else "where " ^ cond f.Mapping.Fragment.client_cond ^ " "
  in
  let store_where =
    if Query.Cond.equal f.Mapping.Fragment.store_cond Query.Cond.True then ""
    else " where " ^ cond f.Mapping.Fragment.store_cond
  in
  Printf.sprintf "  fragment %s %smaps (%s) to %s%s;\n" source client_where
    (String.concat ", " (List.map (fun (a, c) -> a ^ " -> " ^ c) f.Mapping.Fragment.pairs))
    f.Mapping.Fragment.table store_where

let model env frags =
  let client = env.Query.Env.client in
  let b = Buffer.create 1024 in
  buf_add b "client {\n";
  List.iter
    (fun (set, root) -> buf_add b (Printf.sprintf "  set %s of %s;\n" set root))
    (Edm.Schema.entity_sets client);
  (* Types in hierarchy preorder so parents precede children. *)
  List.iter
    (fun (_, root) ->
      List.iter
        (fun ty ->
          let e = Option.get (Edm.Schema.find_type client ty) in
          buf_add b (entity_type ~key:(Edm.Schema.key_of client root) e))
        (Edm.Schema.subtypes client root))
    (Edm.Schema.entity_sets client);
  List.iter
    (fun (a : Edm.Association.t) ->
      buf_add b
        (Printf.sprintf "  assoc %s between %s and %s multiplicity %s to %s;\n"
           a.Edm.Association.name a.Edm.Association.end1 a.Edm.Association.end2
           (mult a.Edm.Association.mult1) (mult a.Edm.Association.mult2)))
    (Edm.Schema.associations client);
  buf_add b "}\n\nstore {\n";
  List.iter (fun t -> buf_add b (table t)) (Relational.Schema.tables env.Query.Env.store);
  buf_add b "}\n\nmapping {\n";
  List.iter (fun f -> buf_add b (fragment f)) (Mapping.Fragments.to_list frags);
  buf_add b "}\n";
  Buffer.contents b

(* -- SMOs ------------------------------------------------------------------- *)

let inline_table (t : Relational.Table.t) =
  (* Same content as [table] but formatted for script statements. *)
  let cols =
    String.concat ""
      (List.map
         (fun (c : Relational.Table.column) ->
           Printf.sprintf "    %s : %s%s;\n" c.Relational.Table.cname
             (domain c.Relational.Table.domain)
             (if c.Relational.Table.nullable then "" else " not null"))
         t.Relational.Table.columns)
  in
  let fks =
    String.concat ""
      (List.map
         (fun (fk : Relational.Table.foreign_key) ->
           Printf.sprintf "    fk (%s) references %s (%s);\n"
             (String.concat ", " fk.Relational.Table.fk_columns)
             fk.Relational.Table.ref_table
             (String.concat ", " fk.Relational.Table.ref_columns))
         t.Relational.Table.fks)
  in
  Printf.sprintf "table %s {\n%s    key (%s);\n%s  }" t.Relational.Table.name cols
    (String.concat ", " t.Relational.Table.key)
    fks

let attrs_block (e : Edm.Entity_type.t) =
  String.concat " "
    (List.map
       (fun (a, d) ->
         let non_null = List.mem a e.Edm.Entity_type.non_null in
         Printf.sprintf "%s : %s%s;" a (domain d) (if non_null then " not null" else ""))
       e.Edm.Entity_type.declared)

let pairs ps = String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) ps)

let smo = function
  | Core.Smo.Add_entity { entity; alpha; p_ref; table = t; fmap } ->
      Printf.sprintf
        "add entity %s : %s { %s }\n  alpha (%s) reference %s\n  to %s\n  map (%s);"
        entity.Edm.Entity_type.name
        (Option.value ~default:"?" entity.Edm.Entity_type.parent)
        (attrs_block entity) (String.concat ", " alpha)
        (Option.value ~default:"nil" p_ref)
        (inline_table t) (pairs fmap)
  | Core.Smo.Add_entity_tph { entity; table; fmap; discriminator = d, v } ->
      Printf.sprintf "add entity %s : %s { %s }\n  tph in %s discriminator %s = %s\n  map (%s);"
        entity.Edm.Entity_type.name
        (Option.value ~default:"?" entity.Edm.Entity_type.parent)
        (attrs_block entity) table d (literal v) (pairs fmap)
  | Core.Smo.Add_entity_part { entity; p_ref; parts } ->
      Printf.sprintf "add entity %s : %s { %s }\n  partitions reference %s\n%s;"
        entity.Edm.Entity_type.name
        (Option.value ~default:"?" entity.Edm.Entity_type.parent)
        (attrs_block entity)
        (Option.value ~default:"nil" p_ref)
        (String.concat "\n"
           (List.map
              (fun (p : Core.Add_entity_part.part) ->
                Printf.sprintf "  partition (%s) where %s\n    to %s\n    map (%s)"
                  (String.concat ", " p.Core.Add_entity_part.part_alpha)
                  (cond p.Core.Add_entity_part.part_cond)
                  (inline_table p.Core.Add_entity_part.part_table)
                  (pairs p.Core.Add_entity_part.part_fmap))
              parts))
  | Core.Smo.Add_assoc_fk { assoc; table; fmap } ->
      Printf.sprintf
        "add assoc %s between %s and %s multiplicity %s to %s\n  fk in %s map (%s);"
        assoc.Edm.Association.name assoc.Edm.Association.end1 assoc.Edm.Association.end2
        (mult assoc.Edm.Association.mult1) (mult assoc.Edm.Association.mult2) table (pairs fmap)
  | Core.Smo.Add_assoc_jt { assoc; table = t; fmap } ->
      Printf.sprintf
        "add assoc %s between %s and %s multiplicity %s to %s\n  jt to %s\n  map (%s);"
        assoc.Edm.Association.name assoc.Edm.Association.end1 assoc.Edm.Association.end2
        (mult assoc.Edm.Association.mult1) (mult assoc.Edm.Association.mult2)
        (inline_table t) (pairs fmap)
  | Core.Smo.Add_property { etype; attr = a, d; target } -> (
      match target with
      | Core.Add_property.To_existing_table { table; column } ->
          Printf.sprintf "add property %s.%s : %s in %s column %s;" etype a (domain d) table column
      | Core.Add_property.To_new_table { table = t; fmap } ->
          Printf.sprintf "add property %s.%s : %s\n  to %s\n  map (%s);" etype a (domain d)
            (inline_table t) (pairs fmap))
  | Core.Smo.Drop_entity { etype } -> Printf.sprintf "drop entity %s;" etype
  | Core.Smo.Drop_association { assoc } -> Printf.sprintf "drop assoc %s;" assoc
  | Core.Smo.Drop_property { etype; attr } -> Printf.sprintf "drop property %s.%s;" etype attr
  | Core.Smo.Widen_attribute { etype; attr; domain = d } ->
      Printf.sprintf "widen property %s.%s : %s;" etype attr (domain d)
  | Core.Smo.Set_multiplicity { assoc; mult = m1, m2 } ->
      Printf.sprintf "modify assoc %s multiplicity %s to %s;" assoc (mult m1) (mult m2)
  | Core.Smo.Refactor { assoc } -> Printf.sprintf "refactor %s;" assoc

let script smos = String.concat "\n\n" (List.map smo smos) ^ "\n"
