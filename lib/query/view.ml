type t = { query : Algebra.t; ctor : Ctor.t }

let equal a b = Algebra.equal a.query b.query && Ctor.equal a.ctor b.ctor
let pp fmt v = Format.fprintf fmt "@[<v2>(%a@ | %a)@]" Algebra.pp v.query Ctor.pp v.ctor

module String_map = Map.Make (String)

type query_views = { entity : t String_map.t; assoc : Algebra.t String_map.t }
type update_views = Algebra.t String_map.t

let no_query_views = { entity = String_map.empty; assoc = String_map.empty }
let no_update_views = String_map.empty
let entity_view qv ty = String_map.find_opt ty qv.entity
let assoc_view qv a = String_map.find_opt a qv.assoc
let table_view uv tbl = String_map.find_opt tbl uv
let set_entity_view ty v qv = { qv with entity = String_map.add ty v qv.entity }
let set_assoc_view a v qv = { qv with assoc = String_map.add a v qv.assoc }
let set_table_view tbl v uv = String_map.add tbl v uv
let remove_entity_view ty qv = { qv with entity = String_map.remove ty qv.entity }
let remove_assoc_view a qv = { qv with assoc = String_map.remove a qv.assoc }
let remove_table_view tbl uv = String_map.remove tbl uv
let entity_view_bindings qv = String_map.bindings qv.entity
let assoc_view_bindings qv = String_map.bindings qv.assoc
let update_view_bindings uv = String_map.bindings uv

let queries qv uv =
  List.map (fun (_, v) -> v.query) (entity_view_bindings qv)
  @ List.map snd (assoc_view_bindings qv @ update_view_bindings uv)

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let rec fold_ok f acc = function
  | [] -> Ok acc
  | x :: rest ->
      let* acc = f acc x in
      fold_ok f acc rest

let eval_query env db pp x q =
  match Algebra.infer env q with
  | Error e -> fail "ill-typed view %a: %s" pp x e
  | Ok _ -> Ok (List.sort_uniq Datum.Row.compare (Eval.rows env db q))

let apply_query_views env qv store =
  let db = Eval.store_db store in
  let* inst =
    fold_ok
      (fun inst (set, root) ->
        match entity_view qv root with
        | None -> fail "no query view for hierarchy root %s" root
        | Some v ->
            let* rows = eval_query env db pp v v.query in
            Ok
              (List.fold_left
                 (fun inst row ->
                   Edm.Instance.add_entity ~set (Ctor.eval_entity env.Env.client row v.ctor) inst)
                 inst rows))
      Edm.Instance.empty
      (Edm.Schema.entity_sets env.Env.client)
  in
  fold_ok
    (fun inst (a : Edm.Association.t) ->
      match assoc_view qv a.name with
      | None -> fail "no query view for association set %s" a.name
      | Some q ->
          let* rows = eval_query env db Algebra.pp q q in
          Ok (List.fold_left (fun inst row -> Edm.Instance.add_link ~assoc:a.name row inst) inst rows))
    inst
    (Edm.Schema.associations env.Env.client)

let apply_update_views env uv client =
  let db = Eval.client_db client in
  fold_ok
    (fun store (table, q) ->
      let* rows = eval_query env db Algebra.pp q q in
      Ok (Relational.Instance.set_rows ~table rows store))
    Relational.Instance.empty (update_view_bindings uv)

let roundtrip env qv uv client =
  let* store = apply_update_views env uv client in
  apply_query_views env qv store
