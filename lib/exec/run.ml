module C = Query.Cond
module Eval = Query.Eval
module Row = Datum.Row

let c_scanned = Obs.Metric.counter "exec.rows.scanned"
let c_joined = Obs.Metric.counter "exec.rows.joined"

let apply_proj proj row =
  match proj with None -> row | Some items -> Eval.project_row items row

let scan_slice schema filter proj (arr : Row.t array) lo hi =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    let row = arr.(i) in
    if C.eval schema row filter then acc := apply_proj proj row :: !acc
  done;
  !acc

let effective_workers ~jobs ~n =
  max 1 (min (min jobs n) (Domain.recommended_domain_count ()))

let full_scan ~jobs ~par_threshold schema filter proj arr =
  let n = Array.length arr in
  Obs.Metric.incr ~by:n c_scanned;
  let workers = effective_workers ~jobs ~n in
  if n < par_threshold || workers < 2 then scan_slice schema filter proj arr 0 n
  else begin
    let chunk = (n + workers - 1) / workers in
    let bounds i = (i * chunk, min n ((i + 1) * chunk)) in
    let domains =
      List.init (workers - 1) (fun i ->
          let lo, hi = bounds (i + 1) in
          Domain.spawn (fun () -> scan_slice schema filter proj arr lo hi))
    in
    let first =
      let lo, hi = bounds 0 in
      scan_slice schema filter proj arr lo hi
    in
    List.concat (first :: List.map Domain.join domains)
  end

let rec exec ~jobs ~par_threshold idb plan =
  let schema = (Idb.env idb).Query.Env.client in
  match plan with
  | Plan.Scan { source; access; filter; proj } -> (
      match access with
      | Plan.Full_scan ->
          full_scan ~jobs ~par_threshold schema filter proj (Idb.source_rows idb source)
      | Plan.Index_eq { col; value } ->
          let bucket = Idb.lookup idb source col value in
          Obs.Metric.incr ~by:(List.length bucket) c_scanned;
          List.filter_map
            (fun row ->
              if C.eval schema row filter then Some (apply_proj proj row) else None)
            bucket)
  | Plan.Filter (c, n) ->
      List.filter (fun r -> C.eval schema r c) (exec ~jobs ~par_threshold idb n)
  | Plan.Project (items, n) ->
      List.map (Eval.project_row items) (exec ~jobs ~par_threshold idb n)
  | Plan.Hash_join j -> hash_join ~jobs ~par_threshold idb j
  | Plan.Append (a, b) ->
      exec ~jobs ~par_threshold idb a @ exec ~jobs ~par_threshold idb b

and hash_join ~jobs ~par_threshold idb (j : Plan.join) =
  let lrows = exec ~jobs ~par_threshold idb j.left in
  let rrows = exec ~jobs ~par_threshold idb j.right in
  let out, pairs = Query.Join.hash j.spec lrows rrows in
  Obs.Metric.incr ~by:pairs c_joined;
  out

let rows ?(jobs = 1) ?(par_threshold = 2048) idb plan =
  Obs.Span.with_ ~name:"exec.run" (fun () ->
      let out = exec ~jobs ~par_threshold idb plan in
      Obs.Span.add_attr "rows" (string_of_int (List.length out));
      out)
