module Src_map = Map.Make (struct
  type t = Query.Algebra.source

  let compare = Query.Algebra.compare_source
end)

type node =
  | Scan of Query.Algebra.source
  | Select of Query.Cond.t * node
  | Project of Query.Algebra.proj_item list * node
  | Join of join
  | Union of node * node

and join = { id : int; spec : Query.Join.t; left : node; right : node }

type table_plan = { table : string; root : node; ctor : Query.Ctor.t }

type t = {
  env : Query.Env.t;
  tables : table_plan list;
  sources : (Query.Algebra.source * string list) list;
  readers : table_plan list Src_map.t;
}

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let source_key env = function
  | Query.Algebra.Entity_set s -> (
      match Edm.Schema.set_root env.Query.Env.client s with
      | Some root -> Ok (Edm.Schema.key_of env.Query.Env.client root)
      | None -> fail "ivm: unknown entity set %s" s)
  | Query.Algebra.Assoc_set a -> (
      match Edm.Schema.find_association env.Query.Env.client a with
      | Some assoc -> Ok (Edm.Schema.association_columns env.Query.Env.client assoc)
      | None -> fail "ivm: unknown association set %s" a)
  | Query.Algebra.Table t -> fail "ivm: update view scans store table %s" t

let rec compile_node env next_id = function
  | Query.Algebra.Scan (Table t) -> fail "ivm: update view scans store table %s" t
  | Query.Algebra.Scan src -> Ok (Scan src)
  | Query.Algebra.Select (c, q) ->
      let* n = compile_node env next_id q in
      Ok (Select (c, n))
  | Query.Algebra.Project (items, q) ->
      let* n = compile_node env next_id q in
      Ok (Project (items, n))
  | Query.Algebra.Union_all (l, r) ->
      let* ln = compile_node env next_id l in
      let* rn = compile_node env next_id r in
      Ok (Union (ln, rn))
  | Query.Algebra.Join (l, r, on) -> compile_join env next_id Query.Join.Inner l r on
  | Query.Algebra.Left_outer_join (l, r, on) -> compile_join env next_id Query.Join.Left l r on
  | Query.Algebra.Full_outer_join (l, r, on) -> compile_join env next_id Query.Join.Full l r on

and compile_join env next_id kind l r on =
  let* lcols = Query.Algebra.infer env l in
  let* rcols = Query.Algebra.infer env r in
  let* ln = compile_node env next_id l in
  let* rn = compile_node env next_id r in
  let id = !next_id in
  incr next_id;
  let spec = Query.Join.make kind ~on ~left:lcols ~right:rcols in
  Ok (Join { id; spec; left = ln; right = rn })

let rec node_sources acc = function
  | Scan s -> if List.exists (Query.Algebra.equal_source s) acc then acc else s :: acc
  | Select (_, n) | Project (_, n) -> node_sources acc n
  | Join j -> node_sources (node_sources acc j.left) j.right
  | Union (l, r) -> node_sources (node_sources acc l) r

let compile env uv =
  let next_id = ref 0 in
  let* tables =
    List.fold_left
      (fun acc (table, (v : Query.View.t)) ->
        let* acc = acc in
        let* _cols = Query.Algebra.infer env v.Query.View.query in
        let* root = compile_node env next_id v.Query.View.query in
        Ok ({ table; root; ctor = v.Query.View.ctor } :: acc))
      (Ok [])
      (Query.View.update_view_bindings uv)
  in
  let tables = List.rev tables in
  let srcs =
    List.rev (List.fold_left (fun acc (tp : table_plan) -> node_sources acc tp.root) [] tables)
  in
  let* sources =
    List.fold_left
      (fun acc src ->
        let* acc = acc in
        let* key = source_key env src in
        Ok ((src, key) :: acc))
      (Ok []) srcs
  in
  let readers =
    List.fold_right
      (fun (tp : table_plan) m ->
        List.fold_left
          (fun m src ->
            Src_map.update src (fun l -> Some (tp :: Option.value ~default:[] l)) m)
          m (node_sources [] tp.root))
      tables Src_map.empty
  in
  Ok { env; tables; sources = List.rev sources; readers }

let readers t src = Option.value ~default:[] (Src_map.find_opt src t.readers)
