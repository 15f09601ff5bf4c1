type t = {
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
  report : Validate.report;
}

let ( let* ) = Result.bind

let compile ?(validate = true) ?(optimize = false) ?jobs env frags =
  Obs.Span.with_ ~name:"fullc.compile"
    ~attrs:[ ("fragments", string_of_int (Mapping.Fragments.size frags)) ]
    (fun () ->
      let* update_views =
        Obs.Span.with_ ~name:"fullc.update-views" (fun () ->
            Update_views.all ~optimize env frags)
      in
      let* report =
        if validate then
          Obs.Span.with_ ~name:"fullc.validate" (fun () ->
              Validate.run ?jobs env frags update_views)
        else Ok { Validate.cells_visited = 0; containment_checks = 0; covered_types = 0 }
      in
      let* query_views =
        Obs.Span.with_ ~name:"fullc.query-views" (fun () -> Query_views.all ~optimize env frags)
      in
      Ok { query_views; update_views; report })
