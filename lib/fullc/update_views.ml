let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let client_base (f : Mapping.Fragment.t) =
  match f.Mapping.Fragment.client_source with
  | Mapping.Fragment.Set s -> (
      let scan = Query.Algebra.Scan (Query.Algebra.Entity_set s) in
      match f.Mapping.Fragment.client_cond with
      | Query.Cond.True -> scan
      | c -> Query.Algebra.Select (c, scan))
  | Mapping.Fragment.Assoc a -> Query.Algebra.Scan (Query.Algebra.Assoc_set a)

(* Store columns a fragment determines through equality conjuncts of its χ
   (TPH discriminators): the update view must write them back. *)
let store_constants (f : Mapping.Fragment.t) =
  List.filter
    (fun (c, _) -> not (List.mem c (Mapping.Fragment.cols f)))
    (Mapping.Coverage.determined_constants f.Mapping.Fragment.store_cond)

let tagged_client_query key i (f : Mapping.Fragment.t) =
  let items =
    List.map
      (fun (a, c) ->
        if List.mem c key then Query.Algebra.col_as a c
        else Query.Algebra.col_as a (Frag_info.local_name c i))
      f.Mapping.Fragment.pairs
    @ List.map
        (fun (c, v) ->
          if List.mem c key then Query.Algebra.const v c
          else Query.Algebra.const v (Frag_info.local_name c i))
        (store_constants f)
  in
  Query.Algebra.Project (items, client_base f)

let for_table ?(optimize = false) env frags ~table =
  Obs.Span.with_ ~name:"update-views.table" ~attrs:[ ("table", table) ] @@ fun () ->
  let* tbl =
    match Relational.Schema.find_table env.Query.Env.store table with
    | Some tbl -> Ok tbl
    | None -> fail "unknown table %s" table
  in
  let* table_frags =
    match Mapping.Fragments.on_table frags table with
    | [] -> fail "table %s has no mapping fragments" table
    | l -> Ok l
  in
  let key = tbl.Relational.Table.key in
  let* () =
    List.fold_left
      (fun acc (f : Mapping.Fragment.t) ->
        let* () = acc in
        let mapped = Mapping.Fragment.cols f @ List.map fst (store_constants f) in
        match List.find_opt (fun k -> not (List.mem k mapped)) key with
        | Some k -> fail "fragment %s does not map key column %s.%s" (Mapping.Fragment.show f) table k
        | None -> Ok ())
      (Ok ()) table_frags
  in
  let ifr = List.mapi (fun i f -> (i, f)) table_frags in
  let tagged = List.map (fun (i, f) -> tagged_client_query key i f) ifr in
  let combined =
    if optimize then
      Obs.Span.with_ ~name:"fullc.optimize" ~attrs:[ ("table", table) ] (fun () ->
          Optimize.combine env ~key (List.map2 (fun (_, f) b -> (f, b)) ifr tagged))
    else
      match tagged with
      | [] -> assert false
      | first :: rest ->
          List.fold_left (fun acc q -> Query.Algebra.Join (Query.Join.Full, acc, q, key)) first rest
  in
  let sources_for c =
    List.filter_map
      (fun (i, f) ->
        if List.mem c (Mapping.Fragment.cols f) || List.mem_assoc c (store_constants f) then
          Some (Frag_info.local_name c i)
        else None)
      ifr
  in
  let items =
    List.map
      (fun c -> if List.mem c key then Query.Algebra.col c else Frag_info.fuse_item (sources_for c) c)
      (Relational.Table.column_names tbl)
  in
  Ok (Query.Algebra.Project (items, combined))

let all ?(optimize = false) env frags =
  List.fold_left
    (fun acc table ->
      let* acc = acc in
      let* v = for_table ~optimize env frags ~table in
      Ok (Query.View.set_table_view table v acc))
    (Ok Query.View.no_update_views)
    (Mapping.Fragments.tables frags)
