(* Delta rules, one per plan operator.  Selections and projections (a
   scan's own included) distribute over deltas; unions add them; joins
   recompute exactly the key groups a delta touches (old and new group
   contents are both at hand in {!State.join_state}, so Δout = J(new) −
   J(old) per touched key, with J the group's cross product or its padding,
   decided by [Query.Join.key]).  DISTINCT — which [apply_update_views]
   applies to each view's query rows — becomes multiplicity 0↔positive
   transitions.  [init] walks the same plans with bulk rules over row
   lists, which give what the delta rules give from the empty state. *)

module Row_map = Multiset.Row_map
module P = Exec.Plan
module C = Query.Cond

let c_scan = Obs.Metric.counter "ivm.rows.scan"
let c_select = Obs.Metric.counter "ivm.rows.select"
let c_project = Obs.Metric.counter "ivm.rows.project"
let c_join = Obs.Metric.counter "ivm.rows.join"
let c_union = Obs.Metric.counter "ivm.rows.union"
let c_distinct = Obs.Metric.counter "ivm.rows.distinct"

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

(* The selection a scan applies: its residual filter, and for an index
   probe the [col = value] conjunct it was planned from ([C.eval] matches
   no [NULL], as the probe does). *)
let scan_cond access filter =
  match (access, filter) with
  | P.Full_scan, f -> f
  | P.Index_eq { col; value }, C.True -> C.Cmp (col, C.Eq, value)
  | P.Index_eq { col; value }, f -> C.And (C.Cmp (col, C.Eq, value), f)

(* One walk of a table plan serves both rule sets.  ['bag] is what flows
   along the plan's edges — a signed delta for [propagate], a row list (a
   row repeated by its multiplicity) for [init] — and [join] is the only
   rule that reads or writes operator state.  The walk ticks every counter,
   by [total] of the bag the operator emits. *)
type 'bag rules = {
  source : Query.Algebra.source -> 'bag;
  filter : (Datum.Row.t -> bool) -> 'bag -> 'bag;
  map : (Datum.Row.t -> Datum.Row.t) -> 'bag -> 'bag;
  append : 'bag -> 'bag -> 'bag;
  join : Query.Join.t -> State.join_state -> 'bag -> 'bag -> 'bag * State.join_state;
  total : 'bag -> int;
  is_empty : 'bag -> bool;
}

let tick rules c b = Obs.Metric.incr ~by:(rules.total b) c

let select rules schema c b =
  match c with
  | C.True -> b
  | c ->
      let b = rules.filter (fun r -> C.eval schema r c) b in
      tick rules c_select b;
      b

let project rules items b =
  let b = rules.map (Query.Eval.project_row items) b in
  tick rules c_project b;
  b

(* [joins] holds the table's join states by preorder number and [next] is
   the number of the next join the walk meets. *)
let rec node rules schema ((next, joins) as acc) = function
  | P.Scan { source; access; filter; proj } ->
      let b = rules.source source in
      tick rules c_scan b;
      let b = select rules schema (scan_cond access filter) b in
      ((match proj with None -> b | Some items -> project rules items b), acc)
  | P.Filter (c, n) ->
      let b, acc = node rules schema acc n in
      (select rules schema c b, acc)
  | P.Project (items, n) ->
      let b, acc = node rules schema acc n in
      (project rules items b, acc)
  | P.Append (l, r) ->
      let bl, acc = node rules schema acc l in
      let br, acc = node rules schema acc r in
      let b = rules.append bl br in
      tick rules c_union b;
      (b, acc)
  | P.Hash_join j ->
      let bl, acc = node rules schema (next + 1, joins) j.left in
      let br, (after, joins) = node rules schema acc j.right in
      if rules.is_empty bl && rules.is_empty br then (bl, (after, joins))
      else
        let b, js = rules.join j.spec (State.join joins next) bl br in
        tick rules c_join b;
        (b, (after, State.Int_map.add next js joins))

let delta_rules feed =
  {
    source = (fun src -> Option.value ~default:Multiset.empty (Plan.Src_map.find_opt src feed));
    filter = Multiset.filter;
    map = Multiset.map_rows;
    append = Multiset.sum;
    join = join_delta;
    total = Multiset.total;
    is_empty = Multiset.is_empty;
  }

let table_delta (plan : Plan.t) feed st (tp : Plan.table_plan) =
  let schema = plan.Plan.env.Query.Env.client in
  let ts = State.table st tp.Plan.table in
  let d, (_, joins) = node (delta_rules feed) schema (0, ts.State.joins) tp.Plan.root in
  let query_counts, out = Multiset.apply_distinct ~base:ts.State.query_counts ~delta:d in
  Obs.Metric.incr ~by:(Multiset.total out) c_distinct;
  ( out,
    State.set_table tp.Plan.table { State.query_counts; joins }
      ~changed:(not (Multiset.is_empty out)) st )

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
        Obs.Span.tag "rows.fed" (Plan.Src_map.fold (fun _ d acc -> acc + Multiset.total d) feed 0);
      let fed = Plan.Src_map.fold (fun src d acc -> if Multiset.is_empty d then acc else src :: acc) feed [] in
      let tps = reached plan fed in
      Obs.Span.tag "tables" (List.length tps);
      let st, deltas =
        List.fold_left
          (fun (st, acc) (tp : Plan.table_plan) ->
            let out, st = table_delta plan feed st tp in
            (st, (tp.Plan.table, out) :: acc))
          (st, []) tps
      in
      (st, List.rev deltas))

(* The bulk join: both inputs grouped by join key once, and the output the
   [join_group] of each key's groups.  The groups are the state the delta
   rule keeps. *)
let join_rows (j : Query.Join.t) _ ls rs =
  let groups rows =
    List.fold_left
      (fun groups r ->
        Row_map.update (Datum.Row.project j.on r)
          (fun g -> Some (Multiset.add r 1 (Option.value ~default:Multiset.empty g)))
          groups)
      Row_map.empty rows
  in
  let lefts = groups ls and rights = groups rs in
  let emit bag acc =
    Multiset.fold (fun r n acc -> List.rev_append (List.init n (fun _ -> r)) acc) bag acc
  in
  let group m k = Option.value ~default:Multiset.empty (Row_map.find_opt k m) in
  let out = Row_map.fold (fun k l acc -> emit (join_group j k l (group rights k)) acc) lefts [] in
  let out =
    Row_map.fold
      (fun k r acc -> if Row_map.mem k lefts then acc else emit (join_group j k Multiset.empty r) acc)
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
let table_init (plan : Plan.t) rows st (tp : Plan.table_plan) =
  let schema = plan.Plan.env.Query.Env.client in
  let b, (_, joins) = node (bulk_rules rows) schema (0, State.Int_map.empty) tp.Plan.root in
  let query_counts = List.fold_left (fun t r -> Multiset.add r 1 t) Multiset.empty b in
  Obs.Metric.incr ~by:(Multiset.cardinal query_counts) c_distinct;
  State.set_table tp.Plan.table { State.query_counts; joins }
    ~changed:(not (Multiset.is_empty query_counts)) st

let init (plan : Plan.t) st ~rows =
  if Obs.enabled () then
    Obs.Span.tag "rows.fed" (Plan.Src_map.fold (fun _ r acc -> acc + List.length r) rows 0);
  let srcs = Plan.Src_map.fold (fun src r acc -> if r = [] then acc else src :: acc) rows [] in
  let tps = reached plan srcs in
  Obs.Span.tag "tables" (List.length tps);
  List.fold_left (table_init plan rows) st tps

module For_tests = struct
  let table_delta = table_delta
end
