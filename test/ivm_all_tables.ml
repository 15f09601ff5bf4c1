(* [Ivm.Engine.propagate] as it was before it skipped table plans: the
   engine's own per-table delta rule, run on every table plan of the plan
   whatever the feed touches.  [test_ivm] runs it beside the skipping engine
   after every step of its random pipelines and compares states and deltas,
   which checks that skipping unreached plans is sound;
   [Dml.Translate.full_diff] is the independent oracle for the rules
   themselves.  The rule ticks the [ivm.rows.*] counters as the engine
   does; spans are left out. *)

module Row_map = Ivm.State.Row_map
module Group_map = Ivm.Multiset.Row_map
module Multiset = Ivm.Multiset
module Plan = Ivm.Plan
module State = Ivm.State

let propagate (plan : Plan.t) st ~feed =
  let st, deltas =
    List.fold_left
      (fun (st, acc) (tp : Plan.table_plan) ->
        let out, st = Ivm.Engine.For_tests.table_delta feed st tp in
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

(* States equal as maintained images: a base, join or table entry holding
   nothing equals a missing one, and tables equal when their counts and key
   maps do. *)
let equal_states (a : State.t) (b : State.t) =
  let join_empty (js : State.join_state) = Group_map.is_empty js.lefts && Group_map.is_empty js.rights in
  let joins st table = State.Int_map.filter (fun _ js -> not (join_empty js)) (State.joins st table) in
  let groups_equal = Group_map.equal (Group_map.equal Int.equal) in
  let bases (st : State.t) = Plan.Src_map.filter (fun _ b -> not (Row_map.is_empty b)) st.bases in
  let tables = Relational.Instance.tables a.store in
  Plan.Src_map.equal (Row_map.equal (fun r s -> Datum.Tuple.compare r s = 0)) (bases a) (bases b)
  && tables = Relational.Instance.tables b.store
  && List.for_all
       (fun table ->
         let x = State.image a table and y = State.image b table in
         Group_map.equal Int.equal x.counts y.counts
         && Option.equal
              (fun (i, m) (j, n) -> i = j && Datum.Value.Map.equal (List.equal (fun r s -> Datum.Tuple.compare r s = 0)) m n)
              x.key y.key
         && State.Int_map.equal
              (fun (x : State.join_state) (y : State.join_state) ->
                groups_equal x.lefts y.lefts && groups_equal x.rights y.rights)
              (joins a table) (joins b table))
       tables
