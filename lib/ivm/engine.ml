(* Delta rules, one per plan operator.  Selections and projections (a
   scan's own included) distribute over deltas; unions add them; joins
   recompute exactly the key groups a delta touches (old and new group
   contents are both at hand in {!State.join_state}, so Δout = J(new) −
   J(old) per touched key, with J the group's cross product or its padding,
   decided by [Query.Join.key]).  DISTINCT — which [apply_update_views]
   applies to each view's query rows — becomes multiplicity 0↔positive
   transitions. *)

module Row_map = Multiset.Row_map
module P = Exec.Plan
module C = Query.Cond

let c_scan = Obs.Metric.counter "ivm.rows.scan"
let c_select = Obs.Metric.counter "ivm.rows.select"
let c_project = Obs.Metric.counter "ivm.rows.project"
let c_join = Obs.Metric.counter "ivm.rows.join"
let c_union = Obs.Metric.counter "ivm.rows.union"
let c_distinct = Obs.Metric.counter "ivm.rows.distinct"

let tick c d = Obs.Metric.incr ~by:(Multiset.total d) c

(* The join of one key group.  Every row of a group projects to the same
   join-key row [k], so either every pair matches — [k] is a full non-NULL
   key and both sides are non-empty: the cross product, multiplicities
   multiplied — or no pair does, and the outer kinds pad each side. *)
let join_group (j : Query.Join.t) k lbag rbag =
  if Option.is_some (Query.Join.key j.on k)
     && not (Multiset.is_empty lbag || Multiset.is_empty rbag)
  then
    Multiset.fold
      (fun lrow cl acc ->
        Multiset.fold
          (fun rrow cr acc -> Multiset.add (Datum.Row.union lrow rrow) (cl * cr) acc)
          rbag acc)
      lbag Multiset.empty
  else
    let padded cols bag acc =
      Multiset.fold (fun row n acc -> Multiset.add (Query.Join.pad cols row) n acc) bag acc
    in
    match j.kind with
    | Query.Join.Inner -> Multiset.empty
    | Query.Join.Left -> padded j.left_pad lbag Multiset.empty
    | Query.Join.Full -> padded j.right_pad rbag (padded j.left_pad lbag Multiset.empty)

let group_keys groups = Row_map.fold (fun k _ acc -> Row_map.add k () acc) groups

(* Recompute the key groups [dl] and [dr] touch; [js] holds both inputs'
   groups before the delta, and the result holds them after it. *)
let join_delta (j : Query.Join.t) (js : State.join_state) dl dr =
  let dl_groups = Multiset.group_by j.on dl and dr_groups = Multiset.group_by j.on dr in
  let touched = group_keys dr_groups (group_keys dl_groups Row_map.empty) in
  let group m k = Option.value ~default:Multiset.empty (Row_map.find_opt k m) in
  let set_group k g m = if Multiset.is_empty g then Row_map.remove k m else Row_map.add k g m in
  let out, lefts, rights =
    Row_map.fold
      (fun k () (out, lefts, rights) ->
        let old_l = group lefts k and old_r = group rights k in
        let new_l = Multiset.sum (group dl_groups k) old_l in
        let new_r = Multiset.sum (group dr_groups k) old_r in
        let d = Multiset.diff (join_group j k new_l new_r) (join_group j k old_l old_r) in
        (Multiset.sum d out, set_group k new_l lefts, set_group k new_r rights))
      touched
      (Multiset.empty, js.State.lefts, js.State.rights)
  in
  (out, { State.lefts; rights })

let select schema c d =
  match c with
  | C.True -> d
  | c ->
      let d = Multiset.filter (fun r -> C.eval schema r c) d in
      tick c_select d;
      d

let project items d =
  let d = Multiset.map_rows (Query.Eval.project_row items) d in
  tick c_project d;
  d

(* The selection a scan applies: its residual filter, and for an index
   probe the [col = value] conjunct it was planned from ([C.eval] matches
   no [NULL], as the probe does). *)
let scan_cond access filter =
  match (access, filter) with
  | P.Full_scan, f -> f
  | P.Index_eq { col; value }, C.True -> C.Cmp (col, C.Eq, value)
  | P.Index_eq { col; value }, f -> C.And (C.Cmp (col, C.Eq, value), f)

(* [joins] holds the table's join states by preorder number and [next] is
   the number of the next join the walk meets. *)
let rec node_delta schema feed ((next, joins) as acc) = function
  | P.Scan { source; access; filter; proj } ->
      let d = Option.value ~default:Multiset.empty (Plan.Src_map.find_opt source feed) in
      tick c_scan d;
      let d = select schema (scan_cond access filter) d in
      ((match proj with None -> d | Some items -> project items d), acc)
  | P.Filter (c, n) ->
      let d, acc = node_delta schema feed acc n in
      (select schema c d, acc)
  | P.Project (items, n) ->
      let d, acc = node_delta schema feed acc n in
      (project items d, acc)
  | P.Append (l, r) ->
      let dl, acc = node_delta schema feed acc l in
      let dr, acc = node_delta schema feed acc r in
      let d = Multiset.sum dl dr in
      tick c_union d;
      (d, acc)
  | P.Hash_join j ->
      let dl, acc = node_delta schema feed (next + 1, joins) j.left in
      let dr, (after, joins) = node_delta schema feed acc j.right in
      if Multiset.is_empty dl && Multiset.is_empty dr then (Multiset.empty, (after, joins))
      else
        let d, js = join_delta j.spec (State.join joins next) dl dr in
        tick c_join d;
        (d, (after, State.Int_map.add next js joins))

let table_delta (plan : Plan.t) feed st (tp : Plan.table_plan) =
  let schema = plan.Plan.env.Query.Env.client in
  let ts = State.table st tp.Plan.table in
  let d, (_, joins) = node_delta schema feed (0, ts.State.joins) tp.Plan.root in
  let query_counts, out = Multiset.apply_distinct ~base:ts.State.query_counts ~delta:d in
  tick c_distinct out;
  ( out,
    State.set_table tp.Plan.table { State.query_counts; joins }
      ~changed:(not (Multiset.is_empty out)) st )

(* The plans reading a source the feed changes, in plan order.  Plan order
   is ascending table name, so merging the readers of several sources is a
   sort by name. *)
let reached (plan : Plan.t) feed =
  match
    Plan.Src_map.fold
      (fun src d acc -> if Multiset.is_empty d then acc else Plan.readers plan src :: acc)
      feed []
  with
  | [] -> []
  | [ tps ] -> tps
  | tpss ->
      List.sort_uniq
        (fun (a : Plan.table_plan) (b : Plan.table_plan) -> String.compare a.Plan.table b.Plan.table)
        (List.concat tpss)

(* Every delta rule maps an empty input delta to an empty output delta and
   leaves its state alone, so a plan no fed source reaches can be skipped:
   its table's delta is empty and its state unchanged. *)
let propagate (plan : Plan.t) st ~feed =
  Obs.Span.with_ ~name:"ivm.propagate" (fun () ->
      if Obs.enabled () then
        Obs.Span.tag "rows.fed" (Plan.Src_map.fold (fun _ d acc -> acc + Multiset.total d) feed 0);
      let tps = reached plan feed in
      Obs.Span.tag "tables" (List.length tps);
      let st, deltas =
        List.fold_left
          (fun (st, acc) (tp : Plan.table_plan) ->
            let out, st = table_delta plan feed st tp in
            (st, (tp.Plan.table, out) :: acc))
          (st, []) tps
      in
      (st, List.rev deltas))

module For_tests = struct
  let table_delta = table_delta
end
