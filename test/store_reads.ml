(* The maintained store as reads see it, against the store the update views
   give for the same client state: an [Exec.Idb] over each must answer
   every full scan of a table and every probe of each of its columns alike,
   as bags, and the two stores must be [Relational.Instance.equal].  The
   probed values are every value either store holds in the column, every
   key of the maintained store's key map, and NULL, so a row that the key
   map keeps after it left its table, or misses, shows as a difference. *)

module Idb = Exec.Idb

let check ~fail env uv ~client store =
  match Query.View.apply_update_views env uv client with
  | Error e -> fail ("apply_update_views: " ^ e)
  | Ok oracle ->
      if not (Relational.Instance.equal oracle store) then fail "the stores differ";
      let maintained = Idb.make env (Query.Eval.store_db store)
      and expected = Idb.make env (Query.Eval.store_db oracle) in
      List.iter
        (fun (tbl : Relational.Table.t) ->
          let table = tbl.Relational.Table.name in
          let src = Query.Algebra.Table table in
          let layout = Idb.scan_layout env src in
          let bag rows = List.sort Datum.Row.compare (List.map (Datum.Row.of_values layout) rows) in
          let m = Idb.source maintained src and o = Idb.source expected src in
          let keyed =
            match Relational.Instance.image store ~table with
            | Some { key = Some (slot, keyed); _ } ->
                Datum.Value.Map.fold (fun v _ acc -> (slot, v) :: acc) keyed []
            | Some _ | None -> []
          in
          let held =
            List.concat_map
              (fun r -> List.init (Array.length layout) (fun slot -> (slot, Datum.Tuple.get r slot)))
              (Idb.rows m @ Idb.rows o)
          in
          let nulls = List.init (Array.length layout) (fun slot -> (slot, Datum.Value.Null)) in
          List.iter
            (fun (slot, v) ->
              if not (List.equal Datum.Row.equal (bag (Idb.lookup m slot v)) (bag (Idb.lookup o slot v)))
              then
                fail
                  (Printf.sprintf "%s: the probe %s = %s differs" table layout.(slot)
                     (Datum.Value.show v)))
            (List.sort_uniq compare (keyed @ held @ nulls));
          if not (List.equal Datum.Row.equal (bag (Idb.rows m)) (bag (Idb.rows o))) then
            fail (table ^ ": the full scans differ"))
        (Relational.Schema.tables env.Query.Env.store)
