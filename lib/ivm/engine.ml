(* Delta rules, one per plan operator, over positional rows in the layouts
   the planner compiled.  Selections and projections (a scan's own
   included) distribute over deltas; unions add them; joins recompute
   exactly the key groups a delta touches (old and new group contents are
   both at hand in {!State.join_state}, so Δout = J(new) − J(old) per
   touched key, with J the group's cross product or its unmatched rows,
   built by [Exec.Run]'s join-row kernel).  DISTINCT — which
   [apply_update_views] applies to each view's query rows — becomes
   multiplicity 0↔positive transitions over the root's rows, taken into
   the table's layout, which the table's image keeps.  [init] walks the
   same plans with bulk rules over row lists, which give what the delta
   rules give from the empty state. *)

module P = Exec.Plan
module Run = Exec.Run
module Bag = Multiset
module Group_map = Bag.Row_map

let c_scan = Obs.Metric.counter "ivm.rows.scan"
let c_select = Obs.Metric.counter "ivm.rows.select"
let c_project = Obs.Metric.counter "ivm.rows.project"
let c_join = Obs.Metric.counter "ivm.rows.join"
let c_union = Obs.Metric.counter "ivm.rows.union"
let c_distinct = Obs.Metric.counter "ivm.rows.distinct"

(* The rows of a key group that find no partner: none for an inner join,
   the left rows as they are, and for a full join the right rows too,
   through [Run.right_only].  Linear in both bags, signed ones included. *)
let unmatched (j : P.join) lbag rbag =
  match j.spec.kind with
  | Query.Join.Inner -> Bag.empty
  | Query.Join.Left -> lbag
  | Query.Join.Full -> Bag.sum lbag (Bag.map_rows (Run.right_only j) rbag)

(* Every row of a group has the same key values, so either every pair
   matches — no key value is NULL and both sides are non-empty — or none
   does. *)
let matches key lbag rbag =
  not (Array.exists Datum.Value.is_null key || Bag.is_empty lbag || Bag.is_empty rbag)

let join_group (j : P.join) key lbag rbag =
  if matches key lbag rbag then
    Bag.fold
      (fun l cl acc -> Bag.fold (fun r cr acc -> Bag.add (Run.matched j l r) (cl * cr) acc) rbag acc)
      lbag Bag.empty
  else unmatched j lbag rbag

(* Rows grouped by the values of their join-key slots, [NULL]s included;
   [fold] visits each row with its multiplicity. *)
let group_by fold slots rows =
  fold
    (fun r n groups ->
      Group_map.update (Array.map (Run.get r) slots)
        (fun g -> Some (Bag.add r n (Option.value ~default:Bag.empty g)))
        groups)
    rows Group_map.empty

let group_keys groups = Group_map.fold (fun k _ acc -> Group_map.add k () acc) groups

(* Recompute the key groups [dl] and [dr] touch; [js] holds both inputs'
   groups before the delta, and the result holds them after it.  Where no
   pair matches before or after, [J] is [unmatched], which is linear, so
   the group's delta is [unmatched] of its deltas. *)
let join_delta (j : P.join) (js : State.join_state) dl dr =
  let dl_groups = group_by Bag.fold j.lkey dl and dr_groups = group_by Bag.fold j.rkey dr in
  let touched = group_keys dr_groups (group_keys dl_groups Group_map.empty) in
  let group m k = Option.value ~default:Bag.empty (Group_map.find_opt k m) in
  let set_group k g m = if Bag.is_empty g then Group_map.remove k m else Group_map.add k g m in
  let out, lefts, rights =
    Group_map.fold
      (fun k () (out, lefts, rights) ->
        let old_l = group lefts k and old_r = group rights k in
        let new_l = Bag.sum (group dl_groups k) old_l in
        let new_r = Bag.sum (group dr_groups k) old_r in
        let d =
          if matches k old_l old_r || matches k new_l new_r then
            Bag.diff (join_group j k new_l new_r) (join_group j k old_l old_r)
          else unmatched j (group dl_groups k) (group dr_groups k)
        in
        (Bag.sum d out, set_group k new_l lefts, set_group k new_r rights))
      touched
      (Bag.empty, js.State.lefts, js.State.rights)
  in
  (out, { State.lefts; rights })

(* One walk of a table plan serves both rule sets.  ['bag] is what flows
   along the plan's edges — a signed delta for [propagate], a row list (a
   row repeated by its multiplicity) for [init] — and [join] is the only
   rule that reads or writes operator state.  The walk ticks every counter,
   by [total] of the bag the operator emits. *)
type 'bag rules = {
  source : Query.Algebra.source -> 'bag;
  filter : (Exec.Idb.row -> bool) -> 'bag -> 'bag;
  map : (Exec.Idb.row -> Exec.Idb.row) -> 'bag -> 'bag;
  append : 'bag -> 'bag -> 'bag;
  join : P.join -> State.join_state -> 'bag -> 'bag -> 'bag * State.join_state;
  total : 'bag -> int;
  is_empty : 'bag -> bool;
}

let tick rules c b = Obs.Metric.incr ~by:(rules.total b) c

let select rules pred b =
  match pred with
  | P.Always -> b
  | p ->
      let b = rules.filter (fun r -> Run.holds [||] r p) b in
      tick rules c_select b;
      b

let project rules slots b =
  let b = rules.map (Run.project slots) b in
  tick rules c_project b;
  b

(* A scan's selection: its residual filter, and for an index probe the
   [col = value] selection it was planned from, which matches no [NULL], as
   the probe does. *)
let scan_pred access pred =
  match access with
  | P.Full_scan -> pred
  | P.Index_eq { slot; value; _ } -> P.Both (P.Cmp (slot, Query.Cond.Eq, value), pred)

(* [joins] holds the table's join states by preorder number and [next] is
   the number of the next join the walk meets. *)
let rec node rules ((next, joins) as acc) = function
  | P.Scan { source; access; pred; map; _ } ->
      let b = rules.source source in
      tick rules c_scan b;
      let b = select rules (scan_pred access pred) b in
      ((match map with None -> b | Some slots -> project rules slots b), acc)
  | P.Filter { pred; input; _ } ->
      let b, acc = node rules acc input in
      (select rules pred b, acc)
  | P.Project { slots; input; _ } ->
      let b, acc = node rules acc input in
      (project rules slots b, acc)
  | P.Append { left; right; perm } ->
      let bl, acc = node rules acc left in
      let br, acc = node rules acc right in
      let br = match perm with None -> br | Some perm -> rules.map (fun r -> Array.map (Run.get r) perm) br in
      let b = rules.append bl br in
      tick rules c_union b;
      (b, acc)
  | P.Hash_join j ->
      let bl, acc = node rules (next + 1, joins) j.left in
      let br, (after, joins) = node rules acc j.right in
      if rules.is_empty bl && rules.is_empty br then (bl, (after, joins))
      else
        let b, js = rules.join j (State.join joins next) bl br in
        tick rules c_join b;
        (b, (after, State.Int_map.add next js joins))

let delta_rules feed =
  {
    source = (fun src -> Option.value ~default:Bag.empty (Plan.Src_map.find_opt src feed));
    filter = Bag.filter;
    map = Bag.map_rows;
    append = Bag.sum;
    join = join_delta;
    total = Bag.total;
    is_empty = Bag.is_empty;
  }

(* The root's rows in the table's layout. *)
let to_table map (tp : Plan.table_plan) b =
  match tp.Plan.into with None -> b | Some items -> map (Run.project items) b

let table_delta feed st (tp : Plan.table_plan) =
  let table = tp.Plan.table in
  let d, (_, joins) = node (delta_rules feed) (0, State.joins st table) tp.Plan.root.root in
  let d = to_table Bag.map_rows tp d in
  let counts, out = Bag.apply_distinct ~base:(State.image st table).counts ~delta:d in
  Obs.Metric.incr ~by:(Bag.total out) c_distinct;
  (out, State.set_table table joins ~counts ~out st)

(* The plans reading any of [srcs], in plan order.  Plan order is ascending
   table name, so merging the readers of several sources is a sort by
   name. *)
let reached (plan : Plan.t) srcs =
  match List.map (Plan.readers plan) srcs with
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
        Obs.Span.tag "rows.fed" (Plan.Src_map.fold (fun _ d acc -> acc + Bag.total d) feed 0);
      let fed = Plan.Src_map.fold (fun src d acc -> if Bag.is_empty d then acc else src :: acc) feed [] in
      let tps = reached plan fed in
      Obs.Span.tag "tables" (List.length tps);
      let st, deltas =
        List.fold_left
          (fun (st, acc) (tp : Plan.table_plan) ->
            let out, st = table_delta feed st tp in
            (st, (tp.Plan.table, out) :: acc))
          (st, []) tps
      in
      (st, List.rev deltas))

(* The bulk join: both inputs grouped by join key once, and the output the
   [join_group] of each key's groups.  The groups are the state the delta
   rule keeps. *)
let join_rows (j : P.join) _ ls rs =
  let groups = group_by (fun f rows acc -> List.fold_left (fun acc r -> f r 1 acc) acc rows) in
  let lefts = groups j.lkey ls and rights = groups j.rkey rs in
  let emit bag acc = Bag.fold (fun r n acc -> List.rev_append (List.init n (fun _ -> r)) acc) bag acc in
  let group m k = Option.value ~default:Bag.empty (Group_map.find_opt k m) in
  let out = Group_map.fold (fun k l acc -> emit (join_group j k l (group rights k)) acc) lefts [] in
  let out =
    Group_map.fold
      (fun k r acc -> if Group_map.mem k lefts then acc else emit (join_group j k Bag.empty r) acc)
      rights out
  in
  (out, { State.lefts; rights })

let bulk_rules rows =
  {
    source = (fun src -> Option.value ~default:[] (Plan.Src_map.find_opt src rows));
    filter = List.filter;
    map = List.map;
    append = List.append;
    join = join_rows;
    total = List.length;
    is_empty = (fun b -> b = []);
  }

(* A table's first state: its plan evaluated once over the full sources,
   and DISTINCT as the query rows counted. *)
let table_init rows st (tp : Plan.table_plan) =
  let table = tp.Plan.table in
  let b, (_, joins) = node (bulk_rules rows) (0, State.Int_map.empty) tp.Plan.root.root in
  let b = to_table List.map tp b in
  let st = State.init_table table joins b st in
  Obs.Metric.incr ~by:(Bag.cardinal (State.image st table).counts) c_distinct;
  st

let init (plan : Plan.t) st ~rows =
  if Obs.enabled () then
    Obs.Span.tag "rows.fed" (Plan.Src_map.fold (fun _ r acc -> acc + List.length r) rows 0);
  let srcs = Plan.Src_map.fold (fun src r acc -> if r = [] then acc else src :: acc) rows [] in
  let tps = reached plan srcs in
  Obs.Span.tag "tables" (List.length tps);
  List.fold_left (table_init rows) st tps

module For_tests = struct
  let table_delta = table_delta
end
