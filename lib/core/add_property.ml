type target =
  | To_existing_table of { table : string; column : string }
  | To_new_table of { table : Relational.Table.t; fmap : (string * string) list }

let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

(* Resolve the target into (store', table name, property column, key attr to
   key column pairs). *)
let resolve_target (st : State.t) client' ~etype ~attr:(a, dom) = function
  | To_existing_table { table; column } ->
      let store = st.State.env.Query.Env.store in
      let* tbl =
        match Relational.Schema.find_table store table with
        | Some tbl -> Ok tbl
        | None -> fail "unknown table %s" table
      in
      let set = Option.get (Edm.Schema.set_of_type client' etype) in
      let key = Edm.Schema.key_of client' etype in
      (* The type's data must already live there, keyed on the table key. *)
      let* key_pairs =
        let carrier =
          List.find_opt
            (fun (f : Mapping.Fragment.t) ->
              Mapping.Fragment.equal_client_source f.Mapping.Fragment.client_source
                (Mapping.Fragment.Set set)
              && List.for_all
                   (fun k ->
                     match Mapping.Fragment.col_of f k with
                     | Some c -> List.mem c tbl.Relational.Table.key
                     | None -> false)
                   key)
            (Mapping.Fragments.on_table st.State.fragments table)
        in
        match carrier with
        | Some f -> Ok (List.map (fun k -> (k, Option.get (Mapping.Fragment.col_of f k))) key)
        | None -> fail "no fragment keys entity set %s on the key of table %s" set table
      in
      let* store' =
        match Relational.Table.column tbl column with
        | None ->
            Algo.lift
              (Relational.Schema.replace_table
                 (Relational.Table.add_column tbl
                    { Relational.Table.cname = column; domain = dom; nullable = true })
                 store)
        | Some col ->
            if Mapping.Fragments.column_used st.State.fragments ~table column then
              fail "column %s.%s is already used by the mapping" table column
            else if not col.Relational.Table.nullable then
              fail "existing column %s.%s must be nullable" table column
            else if not (Datum.Domain.subsumes ~wide:col.Relational.Table.domain ~narrow:dom)
            then fail "dom(%s) is not contained in dom(%s.%s)" a table column
            else Ok store
      in
      Ok (store', table, column, key_pairs, `Existing)
  | To_new_table { table; fmap } ->
      let key = Edm.Schema.key_of client' etype in
      let attrs =
        List.filter (fun (x, _) -> x = a || List.mem x key) (Edm.Schema.attributes client' etype)
      in
      let* () = Algo.check_column_map ~attrs ~keys:[ key ] table fmap in
      let* store' =
        Algo.add_fresh_table st.State.fragments st.State.env.Query.Env.store table fmap
      in
      let column = List.assoc a fmap in
      let key_pairs = List.map (fun k -> (k, List.assoc k fmap)) key in
      Ok (store', table.Relational.Table.name, column, key_pairs, `New table)

let apply (st : State.t) ~etype ~attr:(a, dom) ~target =
  let* client' = Algo.lift (Edm.Schema.add_attribute ~etype (a, dom) st.State.env.Query.Env.client) in
  let* store', table, column, key_pairs, mode =
    Algo.span "ap.preconditions" (fun () -> resolve_target st client' ~etype ~attr:(a, dom) target)
  in
  let env' = Query.Env.make ~client:client' ~store:store' in
  let set = Option.get (Edm.Schema.set_of_type client' etype) in
  (* New fragment. *)
  let phi =
    Mapping.Fragment.entity ~set ~cond:(Query.Cond.Is_of etype) ~table
      (key_pairs @ [ (a, column) ])
  in
  let fragments = Mapping.Fragments.add phi st.State.fragments in
  (* Query views: the type, its ancestors and its descendants gain the
     property column through a left outer join on the hierarchy key. *)
  let key = Edm.Schema.key_of client' etype in
  let branch = Mapping.Fragment.store_query phi in
  let affected = Edm.Schema.ancestors client' etype @ Edm.Schema.subtypes client' etype in
  (* The affected views share their CASE chains; rebuilding each shared node
     once, and only where a leaf changes, keeps that sharing. *)
  let extend_ctor =
    Query.Ctor.Memo.fix (Query.Ctor.Memo.create ()) (fun extend ctor ->
        match ctor with
        | Query.Ctor.Entity { etype = t; _ } when Edm.Schema.is_subtype client' ~sub:t ~sup:etype ->
            Query.Ctor.Entity { etype = t; attrs = Edm.Schema.attribute_names client' t }
        | Query.Ctor.Entity _ -> ctor
        | Query.Ctor.If (c, x, y) ->
            let x' = extend x and y' = extend y in
            if x' == x && y' == y then ctor else Query.Ctor.If (c, x', y'))
  in
  let* query_views =
    Algo.span "ap.query-views" @@ fun () ->
    List.fold_left
      (fun acc f ->
        let* acc = acc in
        match Query.View.entity_view st.State.query_views f with
        | None -> fail "no previous query view for entity type %s" f
        | Some vf ->
            let query = Query.Algebra.Join (Query.Join.Left, vf.Query.View.query, branch, key) in
            Ok
              (Query.View.set_entity_view f
                 { Query.View.query; ctor = extend_ctor vf.Query.View.ctor }
                 acc))
      (Ok st.State.query_views) affected
  in
  (* Update view of the target table: a new table's is the fragment's
     NULL-padded update side, an existing one's gains it through a left
     outer join on the table key. *)
  let* update_views =
    Algo.span "ap.update-views" @@ fun () ->
    let* qt =
      match mode with
      | `New tbl -> Ok (Mapping.Fragment.update_side ~table:tbl phi)
      | `Existing -> (
          match Query.View.table_view st.State.update_views table with
          | None -> fail "table %s has no update view" table
          | Some qt ->
              let tkey = (Relational.Schema.get_table store' table).Relational.Table.key in
              Ok (Query.Algebra.Join (Query.Join.Left, qt, Mapping.Fragment.update_side phi, tkey)))
    in
    Ok (Query.View.set_table_view table qt st.State.update_views)
  in
  (* Validation: foreign keys of a new property table. *)
  let* obls =
    Algo.span "ap.validate" @@ fun () ->
    match mode with
    | `Existing -> Ok []
    | `New tbl ->
        Datum.Results.collect
          (fun (fk : Relational.Table.foreign_key) ->
            Algo.fk_obligations env' update_views ~table:tbl.Relational.Table.name fk)
          tbl.Relational.Table.fks
  in
  Ok ({ State.env = env'; fragments; query_views; update_views }, obls)
