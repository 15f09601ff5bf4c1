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
  let before_tables = Mapping.Fragments.tables st.State.fragments in
  let fragments =
    Algo.span "drop-entity.fragments" @@ fun () ->
    Mapping.Fragments.to_list st.State.fragments
    |> List.filter_map (fun (f : Mapping.Fragment.t) ->
           let cond = erase_type ~e:etype f.Mapping.Fragment.client_cond in
           if Query.Cond.equal cond Query.Cond.False then None
           else Some { f with Mapping.Fragment.client_cond = cond })
    |> Mapping.Fragments.of_list
  in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  (* Remove update views of tables that lost all fragments, and the dropped
     type's query view. *)
  let after_tables = Mapping.Fragments.tables fragments in
  let orphaned = List.filter (fun t -> not (List.mem t after_tables)) before_tables in
  let update_views =
    List.fold_left (fun uv t -> Query.View.remove_table_view t uv) st.State.update_views orphaned
  in
  let query_views = Query.View.remove_entity_view etype st.State.query_views in
  let st' = { State.env = env'; fragments; query_views; update_views } in
  (* Neighborhood view regeneration for the affected set. *)
  let* st' = Algo.recompile_set env' fragments ~set st' in
  (* Re-check foreign keys of the set's remaining tables. *)
  let touched =
    List.sort_uniq String.compare
      (List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table)
         (Mapping.Fragments.of_set fragments set))
  in
  let* obls =
    Algo.span "drop-entity.fk-checks" @@ fun () ->
    Algo.recheck_fks env' st'.State.update_views touched
  in
  Ok (st', obls)
