let run ?views env frags =
  Obs.Span.with_ ~name:"lint.analyze" (fun () ->
      let memo = Passes.new_memo () in
      let frag_ds =
        List.concat_map (Passes.fragment_diags ~memo env) (Mapping.Fragments.to_list frags)
      in
      let model_ds = Passes.model_diags ~memo env frags in
      let view_ds =
        match views with
        | None -> []
        | Some (qv, uv) -> Passes.view_diags env qv uv @ Wf.check env qv uv
      in
      Diag.sort (frag_ds @ model_ds @ view_ds))
