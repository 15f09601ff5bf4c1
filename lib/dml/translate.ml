type store_op =
  | Insert_row of { table : string; row : Datum.Row.t }
  | Delete_row of { table : string; key : Datum.Row.t }
  | Update_row of { table : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }

type script = store_op list

let to_sql script =
  let b = Buffer.create 256 in
  let lit v = Datum.Value.to_literal v in
  List.iter
    (fun op ->
      (match op with
      | Insert_row { table; row } ->
          let bindings = Datum.Row.to_list row in
          Buffer.add_string b
            (Printf.sprintf "INSERT INTO %s (%s) VALUES (%s);" table
               (String.concat ", " (List.map fst bindings))
               (String.concat ", " (List.map (fun (_, v) -> lit v) bindings)))
      | Delete_row { table; key } ->
          Buffer.add_string b
            (Printf.sprintf "DELETE FROM %s WHERE %s;" table
               (String.concat " AND "
                  (List.map (fun (c, v) -> c ^ " = " ^ lit v) (Datum.Row.to_list key))))
      | Update_row { table; key; changes } ->
          Buffer.add_string b
            (Printf.sprintf "UPDATE %s SET %s WHERE %s;" table
               (String.concat ", " (List.map (fun (c, v) -> c ^ " = " ^ lit v) changes))
               (String.concat " AND "
                  (List.map (fun (c, v) -> c ^ " = " ^ lit v) (Datum.Row.to_list key)))));
      Buffer.add_char b '\n')
    script;
  Buffer.contents b

module String_map = Map.Make (String)
module Row_map = Map.Make (Datum.Row)

(* Foreign-key topological order, level by level: a level is every table
   whose last referenced table (self references aside) sits in the level
   before it, sorted by name.  Each table and foreign key is visited once.
   Tables left over, on a cycle or referencing one, follow in name
   order. *)
let topo_tables schema =
  let tables = Relational.Schema.tables schema in
  let refs (tbl : Relational.Table.t) =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (fk : Relational.Table.foreign_key) ->
           if fk.Relational.Table.ref_table = tbl.Relational.Table.name then None
           else Some fk.Relational.Table.ref_table)
         tbl.Relational.Table.fks)
  in
  let waiting = Hashtbl.create 64 and dependents = Hashtbl.create 64 in
  let level0 =
    List.filter_map
      (fun (tbl : Relational.Table.t) ->
        let name = tbl.Relational.Table.name in
        let rs = refs tbl in
        Hashtbl.replace waiting name (List.length rs);
        List.iter (fun r -> Hashtbl.add dependents r name) rs;
        if rs = [] then Some name else None)
      tables
  in
  let rec levels placed level =
    match level with
    | [] ->
        let rest =
          List.filter_map
            (fun (tbl : Relational.Table.t) ->
              let name = tbl.Relational.Table.name in
              if Hashtbl.find waiting name > 0 then Some name else None)
            tables
        in
        List.rev_append placed (List.sort String.compare rest)
    | level ->
        let level = List.sort String.compare level in
        let next =
          List.concat_map
            (fun r ->
              List.filter
                (fun d ->
                  let n = Hashtbl.find waiting d - 1 in
                  Hashtbl.replace waiting d n;
                  n = 0)
                (Hashtbl.find_all dependents r))
            level
        in
        levels (List.rev_append level placed) next
  in
  levels [] level0

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* One table's removed and added rows, paired by primary key: a key in both
   is an UPDATE of the changed columns, a key only removed a DELETE, a key
   only added an INSERT.  Should a key repeat on one side, its first row
   counts. *)
let classify (tbl : Relational.Table.t) (d : Ivm.Apply.table_delta) =
  let name = tbl.Relational.Table.name in
  let keyed rows = List.map (fun r -> (Datum.Row.project tbl.Relational.Table.key r, r)) rows in
  let index l =
    List.fold_left (fun m (k, r) -> if Row_map.mem k m then m else Row_map.add k r m) Row_map.empty l
  in
  let removed_k = keyed d.Ivm.Apply.removed and added_k = keyed d.Ivm.Apply.added in
  let removed_m = index removed_k and added_m = index added_k in
  let deletes =
    List.filter_map
      (fun (k, _) ->
        if Row_map.mem k added_m then None else Some (Delete_row { table = name; key = k }))
      removed_k
  in
  let updates =
    List.filter_map
      (fun (k, r_new) ->
        match Row_map.find_opt k removed_m with
        | Some r_old ->
            let changes =
              List.filter
                (fun (c, v) ->
                  match Datum.Row.find c r_old with
                  | Some v_old -> not (Datum.Value.equal v v_old)
                  | None -> true)
                (Datum.Row.to_list r_new)
            in
            Some (Update_row { table = name; key = k; changes })
        | None -> None)
      added_k
  in
  let inserts =
    List.filter_map
      (fun (k, r) ->
        if Row_map.mem k removed_m then None else Some (Insert_row { table = name; row = r }))
      added_k
  in
  (deletes, updates, inserts)

(* Each table's position in [topo_tables]. *)
let fk_rank schema =
  List.fold_left
    (fun (m, i) name -> (String_map.add name i m, i + 1))
    (String_map.empty, 0) (topo_tables schema)
  |> fst

(* Deletes run children first and inserts parents first, so that no delete
   or insert leaves a foreign key dangling.  Only the given deltas are
   sorted, by [rank]; a table without a rank (not in the schema) is
   dropped. *)
let script_in_order schema rank (deltas : Ivm.Apply.table_delta list) =
  let per_table =
    List.filter_map
      (fun (d : Ivm.Apply.table_delta) ->
        Option.map (fun i -> (i, d)) (String_map.find_opt d.Ivm.Apply.table rank))
      deltas
    |> List.stable_sort (fun (i, _) (j, _) -> Int.compare i j)
    |> List.map (fun (_, (d : Ivm.Apply.table_delta)) ->
           classify (Relational.Schema.get_table schema d.Ivm.Apply.table) d)
  in
  let deletes = List.concat_map (fun (d, _, _) -> d) (List.rev per_table) in
  let updates = List.concat_map (fun (_, u, _) -> u) per_table in
  let inserts = List.concat_map (fun (_, _, i) -> i) per_table in
  deletes @ updates @ inserts

(* The rows only in [old_rows] and the rows only in [new_rows], each
   ascending: a sorted merge of the two deduplicated images. *)
let sorted_diff old_rows new_rows =
  let rec go removed added = function
    | [], ns -> (List.rev removed, List.rev_append added ns)
    | os, [] -> (List.rev_append removed os, List.rev added)
    | (o :: os' as os), (n :: ns' as ns) ->
        let c = Datum.Row.compare o n in
        if c = 0 then go removed added (os', ns')
        else if c < 0 then go (o :: removed) added (os', ns)
        else go removed (n :: added) (os, ns')
  in
  let sorted rows = List.sort_uniq Datum.Row.compare rows in
  go [] [] (sorted old_rows, sorted new_rows)

(* Per-table, keyed diff: a sorted merge of each table's old and new images
   yields its removed and added rows, classified as [ivm_step]'s deltas
   are. *)
let diff_stores schema ~old_store ~new_store =
  script_in_order schema (fk_rank schema)
    (List.map
       (fun (tbl : Relational.Table.t) ->
         let table = tbl.Relational.Table.name in
         let removed, added =
           sorted_diff
             (Relational.Instance.rows old_store ~table)
             (Relational.Instance.rows new_store ~table)
         in
         { Ivm.Apply.table; removed; added })
       (Relational.Schema.tables schema))

type incremental = {
  env : Query.Env.t;
  plan : Ivm.Plan.t;
  rank : int String_map.t;  (* [fk_rank] of the store schema *)
  state : Ivm.State.t;
}

let ivm_init env uv client =
  let* plan = Ivm.Plan.compile env uv in
  let* state = Ivm.Apply.init plan client in
  Ok { env; plan; rank = fk_rank env.Query.Env.store; state }

let ivm_step inc delta =
  let* deltas, state = Ivm.Apply.step inc.plan inc.state delta in
  Ok (script_in_order inc.env.Query.Env.store inc.rank deltas, { inc with state })

let ivm_store inc = Ivm.State.store inc.state

let translate env uv ~old_client ~delta =
  let* new_client = Delta.apply env.Query.Env.client old_client delta in
  let* inc = ivm_init env uv old_client in
  let* script, inc = ivm_step inc delta in
  Ok (script, new_client, ivm_store inc)

let full_diff env uv ~old_client ~delta =
  let* new_client = Delta.apply env.Query.Env.client old_client delta in
  let* old_store = Query.View.apply_update_views env uv old_client in
  let* new_store = Query.View.apply_update_views env uv new_client in
  Ok (diff_stores env.Query.Env.store ~old_store ~new_store, new_client, new_store)

let apply_script store script =
  List.fold_left
    (fun acc op ->
      let* store = acc in
      match op with
      | Insert_row { table; row } -> Ok (Relational.Instance.add_row ~table row store)
      | Delete_row { table; key } ->
          let cols = Datum.Row.columns key in
          let rows = Relational.Instance.rows store ~table in
          let remaining =
            List.filter (fun r -> not (Datum.Row.equal (Datum.Row.project cols r) key)) rows
          in
          if List.length remaining = List.length rows then
            fail "DELETE %s: no row with key %s" table (Datum.Row.show key)
          else Ok (Relational.Instance.set_rows ~table remaining store)
      | Update_row { table; key; changes } ->
          let cols = Datum.Row.columns key in
          let rows = Relational.Instance.rows store ~table in
          let hit = ref false in
          let updated =
            List.map
              (fun r ->
                if Datum.Row.equal (Datum.Row.project cols r) key then begin
                  hit := true;
                  List.fold_left (fun r (c, v) -> Datum.Row.add c v r) r changes
                end
                else r)
              rows
          in
          if !hit then Ok (Relational.Instance.set_rows ~table updated store)
          else fail "UPDATE %s: no row with key %s" table (Datum.Row.show key))
    (Ok store) script
