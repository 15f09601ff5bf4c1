(* [Ivm.Engine.propagate] as it was before it skipped table plans: the same
   delta rules, run on every table plan of the plan whatever the feed
   touches.  [test_ivm] runs it beside the skipping engine after every step
   of its random pipelines and compares states and deltas.  Counters and
   spans are left out. *)

module Row_map = Ivm.Multiset.Row_map
module Multiset = Ivm.Multiset
module Plan = Ivm.Plan
module State = Ivm.State

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

let select schema c d = Multiset.filter (fun r -> Query.Cond.eval schema r c) d

(* Joins numbered in preorder: [next] is the number of the next join. *)
let rec node_delta schema feed ((next, joins) as acc) = function
  | Exec.Plan.Scan { source; access; filter; proj } ->
      let d = Option.value ~default:Multiset.empty (Plan.Src_map.find_opt source feed) in
      let d =
        match access with
        | Exec.Plan.Full_scan -> d
        | Exec.Plan.Index_eq { col; value } -> select schema (Query.Cond.Cmp (col, Eq, value)) d
      in
      let d = select schema filter d in
      let d =
        match proj with None -> d | Some items -> Multiset.map_rows (Query.Eval.project_row items) d
      in
      (d, acc)
  | Exec.Plan.Filter (c, n) ->
      let d, acc = node_delta schema feed acc n in
      (select schema c d, acc)
  | Exec.Plan.Project (items, n) ->
      let d, acc = node_delta schema feed acc n in
      (Multiset.map_rows (Query.Eval.project_row items) d, acc)
  | Exec.Plan.Append (l, r) ->
      let dl, acc = node_delta schema feed acc l in
      let dr, acc = node_delta schema feed acc r in
      (Multiset.sum dl dr, acc)
  | Exec.Plan.Hash_join j ->
      let dl, acc = node_delta schema feed (next + 1, joins) j.left in
      let dr, (after, joins) = node_delta schema feed acc j.right in
      let d, js = join_delta j.spec (State.join joins next) dl dr in
      (d, (after, State.Int_map.add next js joins))

let table_delta (plan : Plan.t) feed st (tp : Plan.table_plan) =
  let schema = plan.Plan.env.Query.Env.client in
  let ts = State.table st tp.Plan.table in
  let d, (_, joins) = node_delta schema feed (0, ts.State.joins) tp.Plan.root in
  let query_counts, set_d = Multiset.apply_distinct ~base:ts.State.query_counts ~delta:d in
  let tuple_d = Multiset.map_rows (fun r -> Query.Ctor.eval_tuple schema r tp.Plan.ctor) set_d in
  let tuple_counts, out = Multiset.apply_distinct ~base:ts.State.tuple_counts ~delta:tuple_d in
  ( out,
    State.set_table tp.Plan.table { State.query_counts; tuple_counts; joins }
      ~changed:(not (Multiset.is_empty out)) st )

let propagate (plan : Plan.t) st ~feed =
  let st, deltas =
    List.fold_left
      (fun (st, acc) (tp : Plan.table_plan) ->
        let out, st = table_delta plan feed st tp in
        (st, (tp.Plan.table, out) :: acc))
      (st, []) plan.Plan.tables
  in
  (st, List.rev deltas)

(* [Ivm.Apply.step] with the every-table propagation: per table in plan
   order, the set-level delta. *)
let step plan st ops =
  Result.map
    (fun (st, feed) ->
      let st, deltas = propagate plan st ~feed in
      (deltas, st))
    (Ivm.Apply.feed plan st ops)

(* States equal as maintained images: a join or table entry holding
   nothing equals a missing one. *)
let equal_states (a : State.t) (b : State.t) =
  let join_empty (js : State.join_state) = Row_map.is_empty js.lefts && Row_map.is_empty js.rights in
  let joins (ts : State.table_state) =
    State.Int_map.filter (fun _ js -> not (join_empty js)) ts.joins
  in
  let table_empty (ts : State.table_state) =
    Multiset.is_empty ts.query_counts && Multiset.is_empty ts.tuple_counts
    && State.Int_map.is_empty (joins ts)
  in
  let ms_equal = Row_map.equal Int.equal in
  let groups_equal = Row_map.equal ms_equal in
  Plan.Src_map.equal (Row_map.equal Datum.Row.equal) a.bases b.bases
  && State.String_map.equal
       (fun (x : State.table_state) (y : State.table_state) ->
         ms_equal x.query_counts y.query_counts && ms_equal x.tuple_counts y.tuple_counts
         && State.Int_map.equal
              (fun (x : State.join_state) (y : State.join_state) ->
                groups_equal x.lefts y.lefts && groups_equal x.rights y.rights)
              (joins x) (joins y))
       (State.String_map.filter (fun _ ts -> not (table_empty ts)) a.tables)
       (State.String_map.filter (fun _ ts -> not (table_empty ts)) b.tables)
