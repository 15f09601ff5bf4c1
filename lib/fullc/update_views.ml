let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

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
        match List.find_opt (fun k -> not (Mapping.Coverage.writes f k)) key with
        | Some k -> fail "fragment %s does not map key column %s.%s" (Mapping.Fragment.show f) table k
        | None -> Ok ())
      (Ok ()) table_frags
  in
  let ifr = List.mapi (fun i f -> (i, f)) table_frags in
  (* Each fragment's update side, its non-key columns under fragment-local
     names so the fused view can tell the fragments' writes apart. *)
  let tagged =
    List.map
      (fun (i, f) ->
        Mapping.Fragment.update_side f ~rename:(fun c ->
            if List.mem c key then c else Frag_info.local_name c i))
      ifr
  in
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
  let items =
    List.map
      (fun c ->
        if List.mem c key then Query.Algebra.col c
        else Frag_info.fuse_item ifr c ~supplies:Mapping.Coverage.writes)
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
