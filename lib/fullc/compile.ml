let ( let* ) = Result.bind

(* Each entity set's type views, then each association's view. *)
let query_views ~optimize env frags =
  let client = env.Query.Env.client in
  let* qv =
    List.fold_left
      (fun acc (set, _root) ->
        let* acc = acc in
        let* views = Mapping.Views.for_set ~optimize env frags ~set in
        Ok (List.fold_left (fun acc (ty, v) -> Query.View.set_entity_view ty v acc) acc views))
      (Ok Query.View.no_query_views)
      (Edm.Schema.entity_sets client)
  in
  List.fold_left
    (fun acc (a : Edm.Association.t) ->
      let* acc = acc in
      let* v = Mapping.Views.for_assoc frags ~assoc:a.Edm.Association.name in
      Ok (Query.View.set_assoc_view a.Edm.Association.name v acc))
    (Ok qv) (Edm.Schema.associations client)

let update_views ~optimize env frags =
  List.fold_left
    (fun acc table ->
      let* acc = acc in
      let* v = Mapping.Views.for_table ~optimize env frags ~table in
      Ok (Query.View.set_table_view table v acc))
    (Ok Query.View.no_update_views)
    (Mapping.Fragments.tables frags)

let compile ?(validate = true) ?(optimize = false) ?jobs:_ env fragments =
  Obs.Span.with_ ~name:"fullc.compile" @@ fun () ->
  Obs.Span.tag "fragments" (Mapping.Fragments.size fragments);
  let* update_views =
    Obs.Span.with_ ~name:"fullc.update-views" (fun () -> update_views ~optimize env fragments)
  in
  let* () =
    if validate then
      Obs.Span.with_ ~name:"fullc.validate" (fun () ->
          Result.map ignore (Validate.run env fragments))
    else Ok ()
  in
  let* query_views =
    Obs.Span.with_ ~name:"fullc.query-views" (fun () -> query_views ~optimize env fragments)
  in
  Ok { Core.State.env; fragments; query_views; update_views }
