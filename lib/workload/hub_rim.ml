module D = Datum.Domain
module C = Query.Cond
module F = Mapping.Fragment

let ok = function Ok x -> x | Error e -> invalid_arg ("Workload.Hub_rim: " ^ e)
let type_count ~n ~m = n + (n * m)
let atom_count ~n ~m = type_count ~n ~m + (n * m)
let hub i = Printf.sprintf "Hub%d" i
let rim i j = Printf.sprintf "Rim%d_%d" i j
let hub_attr i = Printf.sprintf "HAttr%d" i
let rim_attr i j = Printf.sprintf "RAttr%d_%d" i j
let fk_col i j = Printf.sprintf "Fk%d_%d" i j
let assoc_name i j = Printf.sprintf "Uses%d_%d" i j

let client_schema ~n ~m =
  let s =
    ok
      (Edm.Schema.add_root ~set:"Hubs"
         (Edm.Entity_type.root ~name:(hub 1) ~key:[ "Id" ]
            [ ("Id", D.Int); (hub_attr 1, D.String) ])
         Edm.Schema.empty)
  in
  let s =
    List.fold_left
      (fun s i ->
        ok
          (Edm.Schema.add_derived
             (Edm.Entity_type.derived ~name:(hub i) ~parent:(hub (i - 1))
                [ (hub_attr i, D.String) ])
             s))
      s
      (List.init (n - 1) (fun i -> i + 2))
  in
  let s =
    List.fold_left
      (fun s (i, j) ->
        ok
          (Edm.Schema.add_derived
             (Edm.Entity_type.derived ~name:(rim i j) ~parent:(hub i)
                [ (rim_attr i j, D.String) ])
             s))
      s
      (List.concat_map (fun i -> List.init m (fun j -> (i + 1, j + 1))) (List.init n Fun.id))
  in
  List.fold_left
    (fun s (i, j) ->
      ok
        (Edm.Schema.add_association
           { Edm.Association.name = assoc_name i j; end1 = hub i; end2 = rim i j;
             mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
           s))
    s
    (List.concat_map (fun i -> List.init m (fun j -> (i + 1, j + 1))) (List.init n Fun.id))

let all_pairs ~n ~m =
  List.concat_map (fun i -> List.init m (fun j -> (i + 1, j + 1))) (List.init n Fun.id)

let all_types ~n ~m =
  List.init n (fun i -> hub (i + 1)) @ List.map (fun (i, j) -> rim i j) (all_pairs ~n ~m)

let tph_store ~n ~m =
  let attr_cols =
    List.init n (fun i -> (hub_attr (i + 1), D.String, `Null))
    @ List.map (fun (i, j) -> (rim_attr i j, D.String, `Null)) (all_pairs ~n ~m)
  in
  let fk_cols = List.map (fun (i, j) -> (fk_col i j, D.Int, `Null)) (all_pairs ~n ~m) in
  let fks =
    List.map
      (fun (i, j) ->
        { Relational.Table.fk_columns = [ fk_col i j ]; ref_table = "Big"; ref_columns = [ "Id" ] })
      (all_pairs ~n ~m)
  in
  let big =
    Relational.Table.make ~name:"Big" ~key:[ "Id" ] ~fks
      ((("Id", D.Int, `Not_null) :: ("Disc", D.String, `Null) :: attr_cols) @ fk_cols)
  in
  ok (Relational.Schema.add_table big Relational.Schema.empty)

let tph_fragments client ~n ~m =
  let entity_frag ty =
    let attrs = Edm.Schema.attribute_names client ty in
    F.entity ~set:"Hubs" ~cond:(C.Is_of_only ty) ~table:"Big"
      ~store_cond:(C.Cmp ("Disc", C.Eq, Datum.Value.String ty))
      (List.map (fun a -> (a, a)) attrs)
  in
  let assoc_frag (i, j) =
    F.assoc ~assoc:(assoc_name i j) ~table:"Big"
      ~store_cond:(C.Is_not_null (fk_col i j))
      [ (hub i ^ ".Id", "Id"); (rim i j ^ ".Id", fk_col i j) ]
  in
  Mapping.Fragments.of_list
    (List.map entity_frag (all_types ~n ~m) @ List.map assoc_frag (all_pairs ~n ~m))

let tpt_table client ty ~with_parent_fk =
  let own =
    match Edm.Schema.find_type client ty with
    | Some e -> Edm.Entity_type.declared_names e
    | None -> []
  in
  let cols =
    ("Id", D.Int, `Not_null)
    :: List.filter_map
         (fun a -> if a = "Id" then None else Some (a, D.String, `Null))
         own
  in
  let fks =
    match with_parent_fk with
    | Some parent_table ->
        [ { Relational.Table.fk_columns = [ "Id" ]; ref_table = parent_table;
            ref_columns = [ "Id" ] } ]
    | None -> []
  in
  Relational.Table.make ~name:("T" ^ ty) ~key:[ "Id" ] ~fks cols

(* Associations keep the TPH layout: the hub row stores the partner's key,
   so the hub types' tables carry the Fk columns. *)
let tpt_store client ~n ~m =
  let tables =
    List.map
      (fun ty ->
        let parent = Edm.Schema.parent client ty in
        tpt_table client ty ~with_parent_fk:(Option.map (fun p -> "T" ^ p) parent))
      (all_types ~n ~m)
  in
  let tables =
    List.map
      (fun (tbl : Relational.Table.t) ->
        match
          List.find_opt (fun i -> "T" ^ hub (i + 1) = tbl.Relational.Table.name) (List.init n Fun.id)
        with
        | None -> tbl
        | Some i ->
            List.fold_left
              (fun tbl j ->
                Relational.Table.add_fk
                  (Relational.Table.add_column tbl
                     { Relational.Table.cname = fk_col (i + 1) (j + 1); domain = D.Int;
                       nullable = true })
                  { Relational.Table.fk_columns = [ fk_col (i + 1) (j + 1) ];
                    ref_table = "T" ^ rim (i + 1) (j + 1); ref_columns = [ "Id" ] })
              tbl (List.init m Fun.id))
      tables
  in
  ok (Result.map_error snd (Relational.Schema.of_tables tables))

let tpt_fragments client ~n ~m =
  let entity_frag ty =
    let own =
      match Edm.Schema.find_type client ty with
      | Some e -> Edm.Entity_type.declared_names e
      | None -> []
    in
    let projected = if List.mem "Id" own then own else "Id" :: own in
    F.entity ~set:"Hubs" ~cond:(C.Is_of ty) ~table:("T" ^ ty)
      (List.map (fun a -> (a, a)) projected)
  in
  let assoc_frag (i, j) =
    F.assoc ~assoc:(assoc_name i j) ~table:("T" ^ hub i)
      ~store_cond:(C.Is_not_null (fk_col i j))
      [ (hub i ^ ".Id", "Id"); (rim i j ^ ".Id", fk_col i j) ]
  in
  Mapping.Fragments.of_list
    (List.map entity_frag (all_types ~n ~m) @ List.map assoc_frag (all_pairs ~n ~m))

let generate ~n ~m ~style =
  assert (n >= 1 && m >= 0);
  let client = client_schema ~n ~m in
  match style with
  | `Tph ->
      let store = tph_store ~n ~m in
      (Query.Env.make ~client ~store, tph_fragments client ~n ~m)
  | `Tpt ->
      let store = tpt_store client ~n ~m in
      (Query.Env.make ~client ~store, tpt_fragments client ~n ~m)
