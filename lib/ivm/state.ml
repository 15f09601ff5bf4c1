module Row_map = Multiset.Rows.Row_map
module Group_map = Multiset.Slots.Row_map
module Int_map = Map.Make (Int)
module String_map = Map.Make (String)
module Src_map = Plan.Src_map

type join_state = { lefts : Multiset.Slots.t Group_map.t; rights : Multiset.Slots.t Group_map.t }

type table_state = { query_counts : Multiset.Rows.t; joins : join_state Int_map.t }

type t = {
  bases : Datum.Row.t Row_map.t Src_map.t;
  tables : table_state String_map.t;
  store : Relational.Instance.t;
}

let empty_join = { lefts = Group_map.empty; rights = Group_map.empty }
let empty_table = { query_counts = Multiset.Rows.empty; joins = Int_map.empty }

let empty (plan : Plan.t) =
  {
    bases = Src_map.empty;
    tables = String_map.empty;
    store =
      List.fold_left
        (fun store (tp : Plan.table_plan) -> Relational.Instance.set_rows ~table:tp.Plan.table [] store)
        Relational.Instance.empty plan.Plan.tables;
  }

let base t src = Option.value ~default:Row_map.empty (Src_map.find_opt src t.bases)
let set_base src b t = { t with bases = Src_map.add src b t.bases }
let join joins id = Option.value ~default:empty_join (Int_map.find_opt id joins)
let table t name = Option.value ~default:empty_table (String_map.find_opt name t.tables)

let set_table name ts ~changed t =
  let store =
    if changed then Relational.Instance.set_rows ~table:name (Multiset.Rows.rows ts.query_counts) t.store
    else t.store
  in
  { t with tables = String_map.add name ts t.tables; store }

let store t = t.store
