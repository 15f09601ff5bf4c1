type store_op =
  | Insert_row of { table : string; row : Datum.Row.t }
  | Delete_row of { table : string; key : Datum.Row.t }
  | Update_row of { table : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }

type script = store_op list

let pp_store_op fmt = function
  | Insert_row { table; row } -> Format.fprintf fmt "INSERT %s %a" table Datum.Row.pp row
  | Delete_row { table; key } -> Format.fprintf fmt "DELETE %s %a" table Datum.Row.pp key
  | Update_row { table; key; changes } ->
      Format.fprintf fmt "UPDATE %s %a SET %a" table Datum.Row.pp key Datum.Row.pp
        (Datum.Row.of_list changes)

let pp_script fmt s = Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_store_op) s

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

(* Foreign-key topological order: referenced tables first; cycles (self
   references) fall back to name order within the strongly-connected rest. *)
let topo_tables schema =
  let tables = List.map (fun (t : Relational.Table.t) -> t.Relational.Table.name) (Relational.Schema.tables schema) in
  let refs name =
    match Relational.Schema.find_table schema name with
    | None -> []
    | Some tbl ->
        List.filter_map
          (fun (fk : Relational.Table.foreign_key) ->
            if fk.Relational.Table.ref_table = name then None else Some fk.Relational.Table.ref_table)
          tbl.Relational.Table.fks
  in
  let placed = ref [] in
  let rec place pending =
    let ready, blocked =
      List.partition (fun t -> List.for_all (fun r -> List.mem r !placed) (refs t)) pending
    in
    match ready, blocked with
    | [], [] -> ()
    | [], blocked ->
        (* cycle: give up on ordering the rest *)
        placed := !placed @ List.sort String.compare blocked
    | ready, blocked ->
        placed := !placed @ List.sort String.compare ready;
        place blocked
  in
  place tables;
  !placed

let diff_table (tbl : Relational.Table.t) ~old_rows ~new_rows =
  let key_of r = Datum.Row.project tbl.Relational.Table.key r in
  let keyed rows = List.map (fun r -> (key_of r, r)) rows in
  let old_k = keyed (List.sort_uniq Datum.Row.compare old_rows) in
  let new_k = keyed (List.sort_uniq Datum.Row.compare new_rows) in
  let find k l = List.find_opt (fun (k', _) -> Datum.Row.equal k k') l in
  let deletes =
    List.filter_map
      (fun (k, _) ->
        if find k new_k = None then Some (Delete_row { table = tbl.Relational.Table.name; key = k })
        else None)
      old_k
  in
  let inserts =
    List.filter_map
      (fun (k, r) ->
        if find k old_k = None then Some (Insert_row { table = tbl.Relational.Table.name; row = r })
        else None)
      new_k
  in
  let updates =
    List.filter_map
      (fun (k, r_new) ->
        match find k old_k with
        | Some (_, r_old) when not (Datum.Row.equal r_old r_new) ->
            let changes =
              List.filter
                (fun (c, v) -> not (Datum.Value.equal v (Datum.Row.get c r_old)))
                (Datum.Row.to_list r_new)
            in
            Some (Update_row { table = tbl.Relational.Table.name; key = k; changes })
        | _ -> None)
      new_k
  in
  (deletes, updates, inserts)

let diff_stores schema ~old_store ~new_store =
  let order = topo_tables schema in
  let per_table =
    List.map
      (fun name ->
        let tbl = Relational.Schema.get_table schema name in
        diff_table tbl
          ~old_rows:(Relational.Instance.rows old_store ~table:name)
          ~new_rows:(Relational.Instance.rows new_store ~table:name))
      order
  in
  (* Deletes in reverse topological order (children first), then updates,
     then inserts in topological order (parents first). *)
  let deletes = List.concat_map (fun (d, _, _) -> d) (List.rev per_table) in
  let updates = List.concat_map (fun (_, u, _) -> u) per_table in
  let inserts = List.concat_map (fun (_, _, i) -> i) per_table in
  deletes @ updates @ inserts

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let ivm_op = function
  | Delta.Insert_entity { set; entity } ->
      Ivm.Apply.Insert_entity
        { set; etype = entity.Edm.Instance.etype; attrs = entity.Edm.Instance.attrs }
  | Delta.Delete_entity { set; key } -> Ivm.Apply.Delete_entity { set; key }
  | Delta.Update_entity { set; key; changes } -> Ivm.Apply.Update_entity { set; key; changes }
  | Delta.Insert_link { assoc; link } -> Ivm.Apply.Insert_link { assoc; link }
  | Delta.Delete_link { assoc; link } -> Ivm.Apply.Delete_link { assoc; link }

(* Same classification and ordering as [diff_stores], fed from table deltas
   instead of whole-store diffs.  [removed]/[added] are sorted subsets of the
   sorted row lists [diff_table] iterates, and a sorted subset preserves
   relative order, so the emitted script is byte-identical to the full-diff
   script (pinned by the differential tests in test/test_ivm.ml). *)
let script_of_deltas schema (deltas : Ivm.Apply.table_delta list) =
  let by_table = List.map (fun (d : Ivm.Apply.table_delta) -> (d.Ivm.Apply.table, d)) deltas in
  let per_table =
    List.filter_map
      (fun name ->
        match List.assoc_opt name by_table with
        | None -> None
        | Some d ->
            let tbl = Relational.Schema.get_table schema name in
            let key_of r = Datum.Row.project tbl.Relational.Table.key r in
            let removed_k = List.map (fun r -> (key_of r, r)) d.Ivm.Apply.removed in
            let added_k = List.map (fun r -> (key_of r, r)) d.Ivm.Apply.added in
            let find k l = List.find_opt (fun (k', _) -> Datum.Row.equal k k') l in
            let deletes =
              List.filter_map
                (fun (k, _) ->
                  if find k added_k = None then Some (Delete_row { table = name; key = k })
                  else None)
                removed_k
            in
            let updates =
              List.filter_map
                (fun (k, r_new) ->
                  match find k removed_k with
                  | Some (_, r_old) ->
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
                  if find k removed_k = None then Some (Insert_row { table = name; row = r })
                  else None)
                added_k
            in
            Some (deletes, updates, inserts))
      (topo_tables schema)
  in
  let deletes = List.concat_map (fun (d, _, _) -> d) (List.rev per_table) in
  let updates = List.concat_map (fun (_, u, _) -> u) per_table in
  let inserts = List.concat_map (fun (_, _, i) -> i) per_table in
  deletes @ updates @ inserts

type incremental = { env : Query.Env.t; plan : Ivm.Plan.t; state : Ivm.State.t }

let ivm_init env uv client =
  let* plan = Ivm.Plan.compile env uv in
  let* state = Ivm.Apply.init plan client in
  Ok { env; plan; state }

let ivm_step inc delta =
  let* deltas, state = Ivm.Apply.step inc.plan inc.state (List.map ivm_op delta) in
  Ok (script_of_deltas inc.env.Query.Env.store deltas, { inc with state })

let ivm_store inc = Ivm.State.store inc.plan inc.state

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
