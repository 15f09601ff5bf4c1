module C = Query.Cond
module Eval = Query.Eval

let c_scanned = Obs.Metric.counter "exec.rows.scanned"
let c_joined = Obs.Metric.counter "exec.rows.joined"

let rec exec idb schema = function
  | Plan.Scan { source; access; filter; proj } ->
      (* One filter-and-project step, folded right over the rows of either
         access path so the output keeps scan order. *)
      let step row acc =
        if not (C.eval schema row filter) then acc
        else match proj with None -> row :: acc | Some items -> Eval.project_row items row :: acc
      in
      let rows =
        match access with
        | Plan.Full_scan -> Idb.source_rows idb source
        | Plan.Index_eq { col; value } -> Idb.lookup idb source col value
      in
      Obs.Metric.incr ~by:(List.length rows) c_scanned;
      List.fold_right step rows []
  | Plan.Filter (c, n) -> List.filter (fun r -> C.eval schema r c) (exec idb schema n)
  | Plan.Project (items, n) -> List.map (Eval.project_row items) (exec idb schema n)
  | Plan.Hash_join j ->
      let lrows = exec idb schema j.left in
      let rrows = exec idb schema j.right in
      let out, pairs = Query.Join.hash j.spec lrows rrows in
      Obs.Metric.incr ~by:pairs c_joined;
      out
  | Plan.Append (a, b) -> exec idb schema a @ exec idb schema b

let rows ?jobs:_ idb plan =
  Obs.Span.with_ ~name:"exec.run" (fun () ->
      let out = exec idb (Idb.env idb).Query.Env.client plan in
      Obs.Span.tag "rows" (List.length out);
      out)
