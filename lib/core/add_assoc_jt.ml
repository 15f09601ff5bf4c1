let ( let* ) = Result.bind

let apply (st : State.t) ~assoc ~table ~fmap =
  let client = st.State.env.Query.Env.client in
  let store = st.State.env.Query.Env.store in
  let* client' = Algo.lift (Edm.Schema.add_association assoc client) in
  let attrs = Edm.Schema.association_attributes client' assoc in
  let expected = List.map fst attrs in
  let cols1 =
    List.map (Edm.Association.qualify ~etype:assoc.Edm.Association.end1)
      (Edm.Schema.key_of client' assoc.Edm.Association.end1)
  in
  let keys =
    match assoc.Edm.Association.mult2 with
    | Edm.Association.Many -> [ expected ]
    | Edm.Association.One | Edm.Association.Zero_or_one -> [ expected; cols1 ]
  in
  let* () = Algo.check_column_map ~attrs ~keys table fmap in
  let* store' = Algo.add_fresh_table st.State.fragments store table fmap in
  let env' = Query.Env.make ~client:client' ~store:store' in
  (* Fragment, views. *)
  let fragments, query_views, update_views =
    Algo.span "aa-jt.view-patch" @@ fun () ->
    let phi_a = Mapping.Fragment.assoc ~assoc:assoc.Edm.Association.name ~table:table.Relational.Table.name fmap in
    let fragments = Mapping.Fragments.add phi_a st.State.fragments in
    let query_views =
      Query.View.set_assoc_view assoc.Edm.Association.name (Mapping.Fragment.store_query phi_a)
        st.State.query_views
    in
    let update_views =
      Query.View.set_table_view table.Relational.Table.name
        (Mapping.Fragment.update_side ~table phi_a)
        st.State.update_views
    in
    (fragments, query_views, update_views)
  in
  (* Validation: the join table's foreign keys must resolve under the new
     update views (endpoint inclusion is chased by the containment
     checker). *)
  let* obls =
    Algo.span "aa-jt.validate" @@ fun () ->
    Algo.image_fk_obligations env' fragments update_views ~table:table.Relational.Table.name
      ~columns:(List.map snd fmap)
  in
  Ok ({ State.env = env'; fragments; query_views; update_views }, obls)
