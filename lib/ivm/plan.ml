module Src_map = Map.Make (struct
  type t = Query.Algebra.source

  let compare = Query.Algebra.compare_source
end)

type table_plan = {
  table : string;
  root : Exec.Plan.t;
  layout : string array;
  key : int option;
  into : Exec.Plan.item array option;
}

type t = {
  env : Query.Env.t;
  tables : table_plan list;
  readers : table_plan list Src_map.t;
  scan_layout : Query.Algebra.source -> string array;
}

let ( let* ) = Result.bind

let index_of layout c =
  let rec go i = if i = Array.length layout then None else if layout.(i) = c then Some i else go (i + 1) in
  go 0

(* The table's layout and key slot, and where the root's template puts
   each of its columns.  The template binds the root layout's columns in
   ascending name order, [order] giving each one's root slot. *)
let table_plan env table (root : Exec.Plan.t) =
  match Relational.Schema.find_table env.Query.Env.store table with
  | None -> Error ("ivm: update view for unknown table " ^ table)
  | Some tbl ->
      let layout = Exec.Idb.scan_layout env (Query.Algebra.Table table) in
      let columns = Datum.Row.columns root.Exec.Plan.template in
      if List.sort String.compare (Array.to_list layout) <> columns then
        Error
          (Printf.sprintf "ivm: the update view of %s yields {%s}, not the table's columns" table
             (String.concat "," columns))
      else
        let sorted = Array.of_list columns in
        let slots = Array.map (fun c -> root.Exec.Plan.order.(Option.get (index_of sorted c))) layout in
        let key = match tbl.Relational.Table.key with [ k ] -> index_of layout k | _ -> None in
        let identity = Array.for_all2 ( = ) slots (Array.init (Array.length slots) Fun.id) in
        Ok
          { table; root; layout; key;
            into = (if identity then None else Some (Array.map (fun s -> Exec.Plan.Slot s) slots)) }

(* One planner context over every update view, so each view node is
   simplified and typed once.  [rev_plans] is in descending table order, so
   prepending each plan to its sources' readers leaves them ascending. *)
let compile env uv =
  let views = Query.View.update_view_bindings uv in
  let ctx = Exec.Planner.context env (List.map snd views) in
  let* rev_plans =
    List.fold_left
      (fun acc (table, q) ->
        let* acc = acc in
        let sources = Query.Algebra.sources q in
        match List.find_map (function Query.Algebra.Table t -> Some t | _ -> None) sources with
        | Some t -> Error ("ivm: update view scans store table " ^ t)
        | None ->
            let* root = Exec.Planner.plan_in ctx q in
            let* tp = table_plan env table root in
            Ok ((tp, sources) :: acc))
      (Ok []) views
  in
  let readers =
    List.fold_left
      (fun m (tp, sources) ->
        List.fold_left
          (fun m src -> Src_map.update src (fun l -> Some (tp :: Option.value ~default:[] l)) m)
          m sources)
      Src_map.empty rev_plans
  in
  Ok { env; tables = List.rev_map fst rev_plans; readers; scan_layout = Exec.Planner.scan_layout ctx }

let readers t src = Option.value ~default:[] (Src_map.find_opt src t.readers)
