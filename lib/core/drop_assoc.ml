let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

let apply (st : State.t) ~assoc =
  let client = st.State.env.Query.Env.client in
  let* _a =
    match Edm.Schema.find_association client assoc with
    | Some a -> Ok a
    | None -> fail "unknown association %s" assoc
  in
  let* frag =
    match Mapping.Fragments.of_assoc st.State.fragments assoc with
    | [ f ] -> Ok f
    | [] -> fail "association %s has no mapping fragment" assoc
    | _ -> fail "association %s has several mapping fragments" assoc
  in
  let table = frag.Mapping.Fragment.table in
  let* client' = Algo.lift (Edm.Schema.remove_association assoc client) in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  let fragments = Mapping.Fragments.remove frag st.State.fragments in
  let query_views = Query.View.remove_assoc_view assoc st.State.query_views in
  (* A pure join table loses its view; any other table's update view
     regenerates from its remaining fragments. *)
  let* update_views =
    Algo.span "drop-assoc.view-patch" @@ fun () ->
    let uv = Algo.drop_orphaned_views ~before:st.State.fragments fragments st.State.update_views in
    if Option.is_none (Query.View.table_view uv table) then Ok uv
    else
      let* v = Algo.lift (Fullc.Update_views.for_table env' fragments ~table) in
      Ok (Query.View.set_table_view table v uv)
  in
  let st' = { State.env = env'; fragments; query_views; update_views } in
  (* Safety: remaining foreign keys of the touched table still hold. *)
  let* obls =
    Algo.span "drop-assoc.fk-checks" @@ fun () ->
    Algo.recheck_fks env' st'.State.update_views [ table ]
  in
  Ok (st', obls)
