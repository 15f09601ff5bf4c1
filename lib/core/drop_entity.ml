let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

let erase_type ~e cond =
  Query.Cond.simplify
    (Query.Cond.map_atoms
       (function
         | Query.Cond.Is_of t when t = e -> Query.Cond.False
         | Query.Cond.Is_of_only t when t = e -> Query.Cond.False
         | atom -> atom)
       cond)

let apply (st : State.t) ~etype =
  let client = st.State.env.Query.Env.client in
  let* set =
    match Edm.Schema.set_of_type client etype with
    | Some s -> Ok s
    | None -> fail "unknown entity type %s" etype
  in
  let* () =
    match Edm.Schema.parent client etype with
    | Some _ -> Ok ()
    | None -> fail "dropping hierarchy root %s would drop its entity set; not supported" etype
  in
  let* client' = Algo.lift (Edm.Schema.remove_type etype client) in
  (* Only a fragment whose condition names [etype] can change. *)
  let visited, fragments =
    Algo.span "drop-entity.fragments" @@ fun () ->
    let visited = Mapping.Fragments.naming st.State.fragments [ etype ] in
    Obs.Span.tag "fragments_visited" (List.length visited);
    ( visited,
      List.fold_left
        (fun acc (f : Mapping.Fragment.t) ->
          let cond = erase_type ~e:etype f.Mapping.Fragment.client_cond in
          if Query.Cond.equal cond Query.Cond.False then Mapping.Fragments.remove f acc
          else Mapping.Fragments.replace f { f with Mapping.Fragment.client_cond = cond } acc)
        st.State.fragments visited )
  in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  (* The drop can break no proof (DESIGN §2). *)
  Algo.shrink st env' fragments
    (Query.View.remove_entity_view etype st.State.query_views)
    ~set:(Some set)
    ~tables:(List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table) visited)
