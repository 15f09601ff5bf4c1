let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let apply (st : State.t) ~assoc ~table ~fmap =
  let client = st.State.env.Query.Env.client in
  let store = st.State.env.Query.Env.store in
  let* client' = Algo.lift (Edm.Schema.add_association assoc client) in
  let* () =
    match assoc.Edm.Association.mult2 with
    | Edm.Association.Many -> fail "AddAssocFK requires the %s endpoint to be at most one" assoc.Edm.Association.end2
    | Edm.Association.One | Edm.Association.Zero_or_one -> Ok ()
  in
  let* tbl =
    match Relational.Schema.find_table store table with
    | Some tbl -> Ok tbl
    | None -> fail "unknown table %s" table
  in
  let* () =
    if Mapping.Fragments.on_table st.State.fragments table <> [] then Ok ()
    else fail "table %s is not previously mentioned in the mapping" table
  in
  let key1 = Edm.Schema.key_of client' assoc.Edm.Association.end1 in
  let key2 = Edm.Schema.key_of client' assoc.Edm.Association.end2 in
  let cols1 = List.map (Edm.Association.qualify ~etype:assoc.Edm.Association.end1) key1 in
  let cols2 = List.map (Edm.Association.qualify ~etype:assoc.Edm.Association.end2) key2 in
  let* () =
    Algo.check_column_map
      ~attrs:(Edm.Schema.association_attributes client' assoc)
      ~keys:[ cols1 ] tbl fmap
  in
  let f_pk1 = List.map (fun c -> List.assoc c fmap) cols1 in
  let f_pk2 = List.map (fun c -> List.assoc c fmap) cols2 in
  (* Check 1: f(PK2) previously unused. *)
  let* () =
    Datum.Results.all_ok
      (fun c ->
        if Mapping.Fragments.column_used st.State.fragments ~table c then
          fail "column %s.%s is already used by the mapping" table c
        else Ok ())
      f_pk2
  in
  (* Check 2: E1's keys are storable in T's key. *)
  let* prev_t =
    match Query.View.table_view st.State.update_views table with
    | Some v -> Ok v
    | None -> fail "table %s has no update view" table
  in
  let env' = Query.Env.make ~client:client' ~store in
  (* Checks 2 and 3 reduce to containment: they are the SMO's obligations. *)
  let check2 =
    Algo.span "aa-fk.validate" @@ fun () ->
    let set1 = Option.get (Edm.Schema.set_of_type client' assoc.Edm.Association.end1) in
    let lhs =
      Query.Algebra.project_renamed (List.combine key1 f_pk1)
        (Query.Algebra.Select
           (Query.Cond.Is_of assoc.Edm.Association.end1,
            Query.Algebra.Scan (Query.Algebra.Entity_set set1)))
    in
    let rhs = Query.Algebra.project_cols f_pk1 prev_t in
    let end1 = assoc.Edm.Association.end1 in
    Containment.Obligation.make ~env:env' ~lhs ~rhs
      ~name:(lazy ("aa-fk.check-2:" ^ end1))
      ~on_fail:
        (lazy
          (Printf.sprintf "check 2 failed: %s endpoint keys cannot be stored in the key of %s"
             end1 table))
  in
  (* Check 3: an existing foreign key out of f(PK2) must keep resolving. *)
  let* check3 =
    Algo.span "aa-fk.validate" @@ fun () ->
    Datum.Results.collect
      (fun (fk : Relational.Table.foreign_key) ->
        if not (List.exists (fun c -> List.mem c f_pk2) fk.fk_columns) then Ok []
        else if fk.fk_columns <> f_pk2 then
          fail "foreign key of %s only partially covers f(PK2)" table
        else
          match Query.View.table_view st.State.update_views fk.ref_table with
          | None -> fail "foreign key target %s has no update view" fk.ref_table
          | Some qt' ->
              let set2 = Option.get (Edm.Schema.set_of_type client' assoc.Edm.Association.end2) in
              let lhs =
                Query.Algebra.project_renamed (List.combine key2 fk.ref_columns)
                  (Query.Algebra.Select
                     (Query.Cond.Is_of assoc.Edm.Association.end2,
                      Query.Algebra.Scan (Query.Algebra.Entity_set set2)))
              in
              let rhs = Query.Algebra.project_cols fk.ref_columns qt' in
              Ok
                [
                  let cols = String.concat "," fk.fk_columns in
                  Containment.Obligation.make ~env:env' ~lhs ~rhs
                    ~name:(lazy (Printf.sprintf "aa-fk.check-3:%s(%s)" table cols))
                    ~on_fail:
                      (lazy
                        (Printf.sprintf
                           "check 3 failed: foreign key %s(%s) -> %s would not be preserved"
                           table cols fk.ref_table));
                ])
      tbl.Relational.Table.fks
  in
  (* Fragment, query view, update view. *)
  Algo.span "aa-fk.view-patch" @@ fun () ->
  let phi_a =
    Mapping.Fragment.assoc ~assoc:assoc.Edm.Association.name ~table
      ~store_cond:(Algo.not_null_conj f_pk2) fmap
  in
  let fragments = Mapping.Fragments.add phi_a st.State.fragments in
  let qa =
    Query.Algebra.Project
      ( List.map (fun (ac, c) -> Query.Algebra.col_as c ac) fmap,
        Query.Algebra.Select
          (Algo.not_null_conj f_pk2, Query.Algebra.Scan (Query.Algebra.Table table)) )
  in
  let query_views = Query.View.set_assoc_view assoc.Edm.Association.name qa st.State.query_views in
  let keep = List.filter (fun c -> not (List.mem c f_pk2)) (Relational.Table.column_names tbl) in
  let assoc_side =
    Query.Algebra.Project
      ( List.map (fun (ac, c) -> Query.Algebra.col_as ac c) fmap,
        Query.Algebra.Scan (Query.Algebra.Assoc_set assoc.Edm.Association.name) )
  in
  let qt =
    Query.Algebra.Join
      (Query.Join.Left, Query.Algebra.project_cols keep prev_t, assoc_side, f_pk1)
  in
  let update_views = Query.View.set_table_view table qt st.State.update_views in
  Ok ({ State.env = env'; fragments; query_views; update_views }, check2 :: check3)
