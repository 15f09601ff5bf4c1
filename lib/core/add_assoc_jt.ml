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
  let image = List.map snd fmap in
  (* Fragment, views. *)
  let fragments, query_views, update_views =
    Algo.span "aa-jt.view-patch" @@ fun () ->
    let phi_a = Mapping.Fragment.assoc ~assoc:assoc.Edm.Association.name ~table:table.Relational.Table.name fmap in
    let fragments = Mapping.Fragments.add phi_a st.State.fragments in
    let qa =
      Query.Algebra.Project
        ( List.map (fun (ac, c) -> Query.Algebra.col_as c ac) fmap,
          Query.Algebra.Scan (Query.Algebra.Table table.Relational.Table.name) )
    in
    let query_views = Query.View.set_assoc_view assoc.Edm.Association.name qa st.State.query_views in
    let qt =
      Query.Algebra.Project
        ( List.map (fun (ac, c) -> Query.Algebra.col_as ac c) fmap
          @ List.filter_map
              (fun c -> if List.mem c image then None else Some (Query.Algebra.null_as c))
              (Relational.Table.column_names table),
          Query.Algebra.Scan (Query.Algebra.Assoc_set assoc.Edm.Association.name) )
    in
    let update_views = Query.View.set_table_view table.Relational.Table.name qt st.State.update_views in
    (fragments, query_views, update_views)
  in
  (* Validation: the join table's foreign keys must resolve under the new
     update views (endpoint inclusion is chased by the containment
     checker). *)
  let* obls =
    Algo.span "aa-jt.validate" @@ fun () ->
    Datum.Results.collect
      (fun (fk : Relational.Table.foreign_key) ->
        Algo.fk_obligations env' update_views ~table:table.Relational.Table.name fk)
      table.Relational.Table.fks
  in
  Ok ({ State.env = env'; fragments; query_views; update_views }, obls)
