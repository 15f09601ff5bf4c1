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

let join_delta (j : Plan.join) st dl dr =
  let js = State.join st j.id in
  let on = j.spec.Query.Join.on in
  let dl_groups = Multiset.group_by on dl and dr_groups = Multiset.group_by on dr in
  let touched = group_keys dr_groups (group_keys dl_groups Row_map.empty) in
  let group m k = Option.value ~default:Multiset.empty (Row_map.find_opt k m) in
  let set_group k g m = if Multiset.is_empty g then Row_map.remove k m else Row_map.add k g m in
  let out, lefts, rights =
    Row_map.fold
      (fun k () (out, lefts, rights) ->
        let old_l = group lefts k and old_r = group rights k in
        let new_l = Multiset.sum (group dl_groups k) old_l in
        let new_r = Multiset.sum (group dr_groups k) old_r in
        let d =
          Multiset.diff (join_group j.spec k new_l new_r) (join_group j.spec k old_l old_r)
        in
        (Multiset.sum d out, set_group k new_l lefts, set_group k new_r rights))
      touched
      (Multiset.empty, js.State.lefts, js.State.rights)
  in
  (out, State.set_join j.id { State.lefts; rights } st)

let rec node_delta env feed st = function
  | Plan.Scan src -> (Option.value ~default:Multiset.empty (Plan.Src_map.find_opt src feed), st)
  | Plan.Select (c, n) ->
      let d, st = node_delta env feed st n in
      (Multiset.filter (fun r -> Query.Cond.eval env.Query.Env.client r c) d, st)
  | Plan.Project (items, n) ->
      let d, st = node_delta env feed st n in
      (Multiset.map_rows (Query.Eval.project_row items) d, st)
  | Plan.Union (l, r) ->
      let dl, st = node_delta env feed st l in
      let dr, st = node_delta env feed st r in
      (Multiset.sum dl dr, st)
  | Plan.Join j ->
      let dl, st = node_delta env feed st j.left in
      let dr, st = node_delta env feed st j.right in
      join_delta j st dl dr

let table_delta (plan : Plan.t) feed st (tp : Plan.table_plan) =
  let d, st = node_delta plan.Plan.env feed st tp.Plan.root in
  let ts = State.table st tp.Plan.table in
  let query_counts, set_d = Multiset.apply_distinct ~base:ts.State.query_counts ~delta:d in
  let tuple_d =
    Multiset.map_rows
      (fun r -> Query.Ctor.eval_tuple plan.Plan.env.Query.Env.client r tp.Plan.ctor)
      set_d
  in
  let tuple_counts, out = Multiset.apply_distinct ~base:ts.State.tuple_counts ~delta:tuple_d in
  ( out,
    State.set_table tp.Plan.table { State.query_counts; tuple_counts }
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
  let table_empty (ts : State.table_state) =
    Multiset.is_empty ts.query_counts && Multiset.is_empty ts.tuple_counts
  in
  let ms_equal = Row_map.equal Int.equal in
  let groups_equal = Row_map.equal ms_equal in
  Plan.Src_map.equal (Row_map.equal Datum.Row.equal) a.bases b.bases
  && State.Int_map.equal
       (fun (x : State.join_state) (y : State.join_state) ->
         groups_equal x.lefts y.lefts && groups_equal x.rights y.rights)
       (State.Int_map.filter (fun _ js -> not (join_empty js)) a.joins)
       (State.Int_map.filter (fun _ js -> not (join_empty js)) b.joins)
  && State.String_map.equal
       (fun (x : State.table_state) (y : State.table_state) ->
         ms_equal x.query_counts y.query_counts && ms_equal x.tuple_counts y.tuple_counts)
       (State.String_map.filter (fun _ ts -> not (table_empty ts)) a.tables)
       (State.String_map.filter (fun _ ts -> not (table_empty ts)) b.tables)
