module Src_map = Map.Make (struct
  type t = Query.Algebra.source

  let compare = Query.Algebra.compare_source
end)

type table_plan = { table : string; root : Exec.Plan.t }
type t = {
  env : Query.Env.t;
  tables : table_plan list;
  readers : table_plan list Src_map.t;
  scan_layout : Query.Algebra.source -> string array;
}

let ( let* ) = Result.bind

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
            Ok (({ table; root }, sources) :: acc))
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
let scan_row t src = Datum.Row.values (t.scan_layout src)
