(* The views' algebra forest counted as trees and as physically distinct
   nodes: the sharing the memoized view analysis exploits.  Counted only when
   spans are collected. *)
let sharing_attrs (qv, uv) =
  if not (Obs.enabled ()) then []
  else
    let tree, distinct = Query.Algebra.sharing (Query.View.queries qv uv) in
    [ ("tree_nodes", string_of_int tree); ("distinct_nodes", string_of_int distinct) ]

let run ?views env frags =
  Obs.Span.with_ ~name:"lint.analyze" (fun () ->
      let mapping_ds = Passes.run env frags in
      let attrs = match views with Some vs -> sharing_attrs vs | None -> [] in
      let view_ds =
        Obs.Span.with_ ~attrs ~name:"lint.views" (fun () ->
            match views with None -> [] | Some (qv, uv) -> Wf.check env qv uv)
      in
      Diag.sort (List.rev_append mapping_ds view_ds))
