(* The views' algebra forest counted as trees and as physically distinct
   nodes: the sharing the memoized view passes exploit.  Counted only when
   spans are collected. *)
let sharing_attrs (qv, uv) =
  if not (Obs.enabled ()) then []
  else
    let queries bindings = List.map (fun (_, (v : Query.View.t)) -> v.query) bindings in
    let tree, distinct =
      Query.Algebra.sharing
        (queries (Query.View.entity_view_bindings qv)
        @ queries (Query.View.assoc_view_bindings qv)
        @ queries (Query.View.update_view_bindings uv))
    in
    [ ("tree_nodes", string_of_int tree); ("distinct_nodes", string_of_int distinct) ]

let run ?views env frags =
  Obs.Span.with_ ~name:"lint.analyze" (fun () ->
      let memo = Passes.new_memo () in
      let frag_ds =
        Obs.Span.with_ ~name:"lint.fragments" (fun () ->
            List.concat_map (Passes.fragment_diags ~memo env) (Mapping.Fragments.to_list frags))
      in
      let model_ds = Obs.Span.with_ ~name:"lint.model" (fun () -> Passes.model_diags ~memo env frags) in
      let attrs = match views with Some vs -> sharing_attrs vs | None -> [] in
      let view_pass name f =
        Obs.Span.with_ ~attrs ~name (fun () ->
            match views with None -> [] | Some (qv, uv) -> f env qv uv)
      in
      let view_ds = view_pass "lint.views" Passes.view_diags in
      let wf_ds = view_pass "lint.wf" Wf.check in
      Diag.sort (frag_ds @ model_ds @ view_ds @ wf_ds))
