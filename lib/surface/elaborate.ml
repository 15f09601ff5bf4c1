let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let domain = function
  | Ast.D_int -> Datum.Domain.Int
  | Ast.D_string -> Datum.Domain.String
  | Ast.D_bool -> Datum.Domain.Bool
  | Ast.D_decimal -> Datum.Domain.Decimal
  | Ast.D_enum values -> Datum.Domain.Enum values

let multiplicity = function
  | Ast.M_one -> Edm.Association.One
  | Ast.M_zero_one -> Edm.Association.Zero_or_one
  | Ast.M_many -> Edm.Association.Many

let association (a : Ast.assoc) =
  {
    Edm.Association.name = a.Ast.as_name;
    end1 = a.Ast.as_end1;
    end2 = a.Ast.as_end2;
    mult1 = multiplicity a.Ast.as_mult1;
    mult2 = multiplicity a.Ast.as_mult2;
  }

let entity_type (t : Ast.etype) =
  let declared = List.map (fun (a : Ast.attr) -> (a.Ast.a_name, domain a.Ast.a_domain)) t.Ast.t_attrs in
  let key = List.filter_map (fun (a : Ast.attr) -> if a.Ast.a_key then Some a.Ast.a_name else None) t.Ast.t_attrs in
  let non_null =
    List.filter_map
      (fun (a : Ast.attr) -> if a.Ast.a_non_null && not a.Ast.a_key then Some a.Ast.a_name else None)
      t.Ast.t_attrs
  in
  match t.Ast.t_parent with
  | None ->
      if key = [] then fail "root type %s declares no key attribute" t.Ast.t_name
      else Ok (Edm.Entity_type.root ~name:t.Ast.t_name ~key ~non_null declared)
  | Some parent ->
      if key <> [] then fail "derived type %s must not declare key attributes" t.Ast.t_name
      else Ok (Edm.Entity_type.derived ~name:t.Ast.t_name ~parent ~non_null declared)

let table (t : Ast.table) =
  let cols =
    List.map
      (fun (c : Ast.column) ->
        (c.Ast.c_name, domain c.Ast.c_domain, if c.Ast.c_not_null then `Not_null else `Null))
      t.Ast.tb_cols
  in
  let fks =
    List.map
      (fun (f : Ast.fk) ->
        { Relational.Table.fk_columns = f.Ast.fk_cols; ref_table = f.Ast.fk_ref;
          ref_columns = f.Ast.fk_ref_cols })
      t.Ast.tb_fks
  in
  let* () =
    match List.find_opt (fun k -> not (List.exists (fun (c, _, _) -> c = k) cols)) t.Ast.tb_key with
    | Some k -> fail "table %s keys on undeclared column %s" t.Ast.tb_name k
    | None -> Ok ()
  in
  Ok (Relational.Table.make ~name:t.Ast.tb_name ~key:t.Ast.tb_key ~fks cols)

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

(* -- whole models ------------------------------------------------------------ *)

let client_schema (m : Ast.model) =
  (* Dependency order: roots first, then children whose parents are placed. *)
  let set_of_root root =
    List.find_opt (fun (s : Ast.eset) -> s.Ast.s_root = root) m.Ast.sets
  in
  let rec place placed pending schema =
    match pending with
    | [] -> Ok schema
    | _ -> (
        let ready, blocked =
          List.partition
            (fun (t : Ast.etype) ->
              match t.Ast.t_parent with None -> true | Some p -> List.mem p placed)
            pending
        in
        match ready with
        | [] ->
            fail "entity types with unresolvable parents: %s"
              (String.concat ", " (List.map (fun (t : Ast.etype) -> t.Ast.t_name) blocked))
        | _ ->
            let* schema =
              List.fold_left
                (fun acc (t : Ast.etype) ->
                  let* schema = acc in
                  let* e = entity_type t in
                  match t.Ast.t_parent with
                  | Some _ -> Edm.Schema.add_derived e schema
                  | None -> (
                      match set_of_root t.Ast.t_name with
                      | Some s -> Edm.Schema.add_root ~set:s.Ast.s_name e schema
                      | None -> fail "root type %s has no entity set declaration" t.Ast.t_name))
                (Ok schema) ready
            in
            place (placed @ List.map (fun (t : Ast.etype) -> t.Ast.t_name) ready) blocked schema)
  in
  let* schema = place [] m.Ast.types Edm.Schema.empty in
  let* () =
    match
      List.find_opt (fun (s : Ast.eset) -> not (Edm.Schema.mem_type schema s.Ast.s_root)) m.Ast.sets
    with
    | Some s -> fail "entity set %s is rooted at unknown type %s" s.Ast.s_name s.Ast.s_root
    | None -> Ok ()
  in
  List.fold_left
    (fun acc a -> Result.bind acc (Edm.Schema.add_association (association a)))
    (Ok schema) m.Ast.assocs

let store_schema (m : Ast.model) =
  List.fold_left
    (fun acc t ->
      let* schema = acc in
      let* tbl = table t in
      Relational.Schema.add_table tbl schema)
    (Ok Relational.Schema.empty) m.Ast.tables

let fragments client store (m : Ast.model) =
  let is_set name = List.exists (fun (s : Ast.eset) -> s.Ast.s_name = name) m.Ast.sets in
  let is_assoc name = Edm.Schema.find_association client name <> None in
  List.fold_left
    (fun acc (f : Ast.fragment) ->
      let* frags = acc in
      let store_cond =
        Query.Cond.with_domains (table_domain store f.Ast.fr_table) f.Ast.fr_store_cond
      in
      let* frag =
        if is_set f.Ast.fr_source then
          let cond = Query.Cond.with_domains (set_domain client f.Ast.fr_source) f.Ast.fr_cond in
          Ok
            (Mapping.Fragment.entity ~set:f.Ast.fr_source ~cond ~table:f.Ast.fr_table ~store_cond
               f.Ast.fr_pairs)
        else if is_assoc f.Ast.fr_source then begin
          let* () =
            if Query.Cond.equal f.Ast.fr_cond Query.Cond.True then Ok ()
            else fail "association fragment %s cannot carry a client-side condition" f.Ast.fr_source
          in
          Ok
            (Mapping.Fragment.assoc ~assoc:f.Ast.fr_source ~table:f.Ast.fr_table ~store_cond
               f.Ast.fr_pairs)
        end
        else fail "fragment source %s is neither an entity set nor an association" f.Ast.fr_source
      in
      Ok (Mapping.Fragments.add frag frags))
    (Ok Mapping.Fragments.empty) m.Ast.fragments

let model (m : Ast.model) =
  let* client = client_schema m in
  let* store = store_schema m in
  let* () = Edm.Schema.well_formed client in
  let* () = Relational.Schema.well_formed store in
  let env = Query.Env.make ~client ~store in
  let* frags = fragments client store m in
  let* () = Mapping.Fragments.well_formed env frags in
  Ok (env, frags)

(* -- SMOs ---------------------------------------------------------------------- *)

let new_entity ~name ~parent attrs =
  let declared = List.map (fun (a : Ast.attr) -> (a.Ast.a_name, domain a.Ast.a_domain)) attrs in
  let non_null =
    List.filter_map (fun (a : Ast.attr) -> if a.Ast.a_non_null then Some a.Ast.a_name else None) attrs
  in
  Edm.Entity_type.derived ~name ~parent ~non_null declared

let smo = function
  | Ast.S_add_entity { name; parent; attrs; alpha; reference; table = tb; pairs } ->
      let* tbl = table tb in
      Ok
        (Core.Smo.Add_entity
           { entity = new_entity ~name ~parent attrs; alpha; p_ref = reference; table = tbl;
             fmap = pairs })
  | Ast.S_add_entity_tph { name; parent; attrs; table = tb; disc; pairs } ->
      Ok
        (Core.Smo.Add_entity_tph
           { entity = new_entity ~name ~parent attrs; table = tb; fmap = pairs;
             discriminator = disc })
  | Ast.S_add_entity_part { name; parent; attrs; reference; parts } ->
      let* parts =
        List.fold_left
          (fun acc (p : Ast.part) ->
            let* ps = acc in
            let* tbl = table p.Ast.p_table in
            Ok
              ({ Core.Add_entity_part.part_alpha = p.Ast.p_alpha; part_cond = p.Ast.p_cond;
                 part_table = tbl; part_fmap = p.Ast.p_pairs }
              :: ps))
          (Ok []) parts
      in
      Ok
        (Core.Smo.Add_entity_part
           { entity = new_entity ~name ~parent attrs; p_ref = reference; parts = List.rev parts })
  | Ast.S_add_assoc_fk { assoc = a; table = tb; pairs } ->
      Ok (Core.Smo.Add_assoc_fk { assoc = association a; table = tb; fmap = pairs })
  | Ast.S_add_assoc_jt { assoc = a; table = tb; pairs } ->
      let* tbl = table tb in
      Ok (Core.Smo.Add_assoc_jt { assoc = association a; table = tbl; fmap = pairs })
  | Ast.S_add_property { etype; attr; domain = d; target } ->
      let* target =
        match target with
        | Ast.P_existing { table; column } ->
            Ok (Core.Add_property.To_existing_table { table; column })
        | Ast.P_new { table = tb; pairs } ->
            let* tbl = table tb in
            Ok (Core.Add_property.To_new_table { table = tbl; fmap = pairs })
      in
      Ok (Core.Smo.Add_property { etype; attr = (attr, domain d); target })
  | Ast.S_drop_entity etype -> Ok (Core.Smo.Drop_entity { etype })
  | Ast.S_drop_assoc assoc -> Ok (Core.Smo.Drop_association { assoc })
  | Ast.S_drop_property { etype; attr } -> Ok (Core.Smo.Drop_property { etype; attr })
  | Ast.S_widen { etype; attr; domain = d } ->
      Ok (Core.Smo.Widen_attribute { etype; attr; domain = domain d })
  | Ast.S_set_mult { assoc; mult1; mult2 } ->
      Ok (Core.Smo.Set_multiplicity { assoc; mult = (multiplicity mult1, multiplicity mult2) })
  | Ast.S_refactor assoc -> Ok (Core.Smo.Refactor { assoc })

let script smos =
  List.fold_left
    (fun acc s ->
      let* out = acc in
      let* one = smo s in
      Ok (one :: out))
    (Ok []) smos
  |> Result.map List.rev

(* -- queries, data and DML -------------------------------------------------- *)

let query env (q : Ast.query) =
  let client = env.Query.Env.client in
  let* source, domain =
    if Edm.Schema.set_root client q.Ast.q_source <> None then
      Ok (Query.Algebra.Entity_set q.Ast.q_source, set_domain client q.Ast.q_source)
    else if Edm.Schema.find_association client q.Ast.q_source <> None then
      Ok (Query.Algebra.Assoc_set q.Ast.q_source, assoc_domain client q.Ast.q_source)
    else fail "unknown source %s (expected an entity set or association)" q.Ast.q_source
  in
  let base = Query.Algebra.Scan source in
  let selected =
    match q.Ast.q_where with
    | None -> base
    | Some c -> Query.Algebra.Select (Query.Cond.with_domains domain c, base)
  in
  let* algebra =
    match q.Ast.q_items with
    | None ->
        (* select *: all columns except the dynamic-type pseudo column. *)
        let* cols =
          match Query.Algebra.infer env selected with Ok c -> Ok c | Error e -> Error e
        in
        Ok
          (Query.Algebra.project_cols
             (List.filter (fun c -> c <> Query.Env.type_column) cols)
             selected)
    | Some items ->
        Ok
          (Query.Algebra.Project
             ( List.map
                 (fun (it : Ast.select_item) ->
                   match it.Ast.si_as with
                   | None -> Query.Algebra.col it.Ast.si_col
                   | Some dst -> Query.Algebra.col_as it.Ast.si_col dst)
                 items,
               selected ))
  in
  match Query.Algebra.infer env algebra with Ok _ -> Ok algebra | Error e -> Error e

let data env (decls : Ast.data) =
  let client = env.Query.Env.client in
  let* inst =
    List.fold_left
      (fun acc (d : Ast.data_decl) ->
        let* inst = acc in
        match d.Ast.d_type with
        | Some etype ->
            if Edm.Schema.set_root client d.Ast.d_source = None then
              fail "unknown entity set %s" d.Ast.d_source
            else
              Ok
                (Edm.Instance.add_entity ~set:d.Ast.d_source
                   (Edm.Instance.entity ~etype (coerce (type_domain client etype) d.Ast.d_bindings))
                   inst)
        | None ->
            if Edm.Schema.find_association client d.Ast.d_source = None then
              fail "unknown association %s" d.Ast.d_source
            else
              Ok
                (Edm.Instance.add_link ~assoc:d.Ast.d_source
                   (Datum.Row.of_list
                      (coerce (assoc_domain client d.Ast.d_source) d.Ast.d_bindings))
                   inst))
      (Ok Edm.Instance.empty) decls
  in
  let* () = Edm.Instance.conforms client inst in
  Ok inst

let dml env (stmts : Ast.dml) =
  let client = env.Query.Env.client in
  let row domain bindings = Datum.Row.of_list (coerce domain bindings) in
  Ok
    (List.map
       (function
         | Ast.M_insert { set; etype; bindings } ->
             let entity = Edm.Instance.entity ~etype (coerce (type_domain client etype) bindings) in
             Dml.Delta.Insert_entity { set; entity }
         | Ast.M_update { set; key; changes } ->
             Dml.Delta.Update_entity
               { set; key = row (set_domain client set) key;
                 changes = coerce (set_domain client set) changes }
         | Ast.M_delete { set; key } ->
             Dml.Delta.Delete_entity { set; key = row (set_domain client set) key }
         | Ast.M_link { assoc; bindings } ->
             Dml.Delta.Insert_link { assoc; link = row (assoc_domain client assoc) bindings }
         | Ast.M_unlink { assoc; bindings } ->
             Dml.Delta.Delete_link { assoc; link = row (assoc_domain client assoc) bindings })
       stmts)
