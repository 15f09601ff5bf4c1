let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

let apply (st : State.t) ~assoc =
  let client = st.State.env.Query.Env.client in
  let* _a =
    match Edm.Schema.find_association client assoc with
    | Some a -> Ok a
    | None -> fail "unknown association %s" assoc
  in
  let* frag = Algo.lift (Mapping.Fragments.assoc_fragment st.State.fragments assoc) in
  let table = frag.Mapping.Fragment.table in
  let* client' = Algo.lift (Edm.Schema.remove_association assoc client) in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  Obs.Span.tag "fragments_visited" 1;
  let fragments = Mapping.Fragments.remove frag st.State.fragments in
  (* A pure join table loses its view; any other table's update view
     rebuilds from its remaining fragments. *)
  let* st' =
    Algo.shrink st env' fragments
      (Query.View.remove_assoc_view assoc st.State.query_views)
      ~set:None ~tables:[ table ]
  in
  (* Only the columns the fragment wrote change; the checker reads no
     multiplicity, so the proofs of the table's other foreign keys covered
     states without the association's links already (DESIGN §2). *)
  let* obls =
    Algo.image_fk_obligations env' fragments st'.State.update_views ~table
      ~columns:(Mapping.Fragment.cols frag)
  in
  Ok (st', obls)
