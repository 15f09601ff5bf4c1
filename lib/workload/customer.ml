module D = Datum.Domain
module C = Query.Cond
module F = Mapping.Fragment
module V = Datum.Value

let ok = function Ok x -> x | Error e -> invalid_arg ("Workload.Customer: " ^ e)
let tph_cap = 22

(* Hierarchy plan: (index, size, style).  18 hierarchies, 230 types, largest
   95 (TPT), the TPH cost driver capped at [tph_cap].  Hierarchy 4 is kept
   free of associations: it is the AE-TPC target (Fig. 6 forbids TPC below
   association endpoints). *)
let plan =
  [ (1, 95, `Tpt); (2, tph_cap, `Tph); (3, 10, `Tpt); (4, 10, `Tpt); (5, 9, `Tph);
    (6, 9, `Tpt); (7, 8, `Tph); (8, 8, `Tpt); (9, 8, `Tph); (10, 7, `Tpt); (11, 7, `Tph);
    (12, 7, `Tpt); (13, 6, `Tph); (14, 6, `Tpt); (15, 6, `Tph); (16, 5, `Tpt); (17, 4, `Tph);
    (18, 3, `Tpt) ]

let assoc_count = 40
let ty h i = Printf.sprintf "C%dT%d" h i
let set_name h = Printf.sprintf "Set%d" h
let attr h i = Printf.sprintf "A%d_%d" h i
let tpt_table_name h i = Printf.sprintf "TC%dT%d" h i
let tph_table_name h = Printf.sprintf "TH%d" h

(* Quinary tree: depth stays within the published 4 levels for 95 nodes. *)
let parent_index i = (i - 1) / 5

(* Association k: anchored (end1) at a TPT root, pointing at another root.
   Hierarchy 4 is excluded on both sides. *)
let tpt_roots = List.filter_map (fun (h, _, s) -> if s = `Tpt && h <> 4 then Some h else None) plan
let all_roots = List.filter_map (fun (h, _, _) -> if h <> 4 then Some h else None) plan

let assoc_spec k =
  let anchors = List.length tpt_roots in
  let h1 = List.nth tpt_roots (k mod anchors) in
  let rec pick j =
    let h2 = List.nth all_roots (j mod List.length all_roots) in
    if h2 = h1 then pick (j + 1) else h2
  in
  let h2 = pick (k * 7) in
  (Printf.sprintf "Rel%d" k, h1, h2, Printf.sprintf "Fk%d" k)

let assoc_specs = List.init assoc_count assoc_spec

let key_table h =
  match List.assoc h (List.map (fun (h, s, st) -> (h, (s, st))) plan) with
  | _, `Tph -> tph_table_name h
  | _, `Tpt -> tpt_table_name h 0
  | exception Not_found -> invalid_arg "Workload.Customer: unknown hierarchy"

let client_schema () =
  let add_hierarchy s (h, size, _style) =
    let s =
      ok
        (Edm.Schema.add_root ~set:(set_name h)
           (Edm.Entity_type.root ~name:(ty h 0) ~key:[ "Id" ]
              [ ("Id", D.Int); (attr h 0, D.String) ])
           s)
    in
    List.fold_left
      (fun s i ->
        ok
          (Edm.Schema.add_derived
             (Edm.Entity_type.derived ~name:(ty h i) ~parent:(ty h (parent_index i))
                [ (attr h i, D.String) ])
             s))
      s
      (List.init (size - 1) (fun i -> i + 1))
  in
  let s = List.fold_left add_hierarchy Edm.Schema.empty plan in
  List.fold_left
    (fun s (name, h1, h2, _col) ->
      ok
        (Edm.Schema.add_association
           { Edm.Association.name; end1 = ty h1 0; end2 = ty h2 0;
             mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
           s))
    s assoc_specs

let store_schema client =
  let tables_of (h, size, style) =
    match style with
    | `Tph ->
        let cols =
          [ ("Id", D.Int, `Not_null); ("Disc", D.String, `Null) ]
          @ List.init size (fun i -> (attr h i, D.String, `Null))
        in
        [ Relational.Table.make ~name:(tph_table_name h) ~key:[ "Id" ] cols ]
    | `Tpt ->
        List.init size (fun i ->
            let own =
              match Edm.Schema.find_type client (ty h i) with
              | Some e -> Edm.Entity_type.declared_names e
              | None -> []
            in
            let cols =
              ("Id", D.Int, `Not_null)
              :: List.filter_map
                   (fun a -> if a = "Id" then None else Some (a, D.String, `Null))
                   own
            in
            (* The big hierarchy's root keeps a spare column for the AA-FK
               benchmark. *)
            let cols = if h = 1 && i = 0 then cols @ [ ("Spare", D.Int, `Null) ] else cols in
            let fks =
              if i = 0 then []
              else
                [ { Relational.Table.fk_columns = [ "Id" ];
                    ref_table = tpt_table_name h (parent_index i); ref_columns = [ "Id" ] } ]
            in
            Relational.Table.make ~name:(tpt_table_name h i) ~key:[ "Id" ] ~fks cols)
  in
  let base = ok (Result.map_error snd (Relational.Schema.of_tables (List.concat_map tables_of plan))) in
  (* Association columns land on the anchor root's table. *)
  List.fold_left
    (fun s (_name, h1, h2, col) ->
      let tname = tpt_table_name h1 0 in
      let tbl = Relational.Schema.get_table s tname in
      let tbl =
        Relational.Table.add_fk
          (Relational.Table.add_column tbl
             { Relational.Table.cname = col; domain = D.Int; nullable = true })
          { Relational.Table.fk_columns = [ col ]; ref_table = key_table h2;
            ref_columns = [ "Id" ] }
      in
      ok (Relational.Schema.replace_table tbl s))
    base assoc_specs

let fragments client =
  let frags_of (h, size, style) =
    match style with
    | `Tph ->
        List.init size (fun i ->
            let t = ty h i in
            F.entity ~set:(set_name h) ~cond:(C.Is_of_only t) ~table:(tph_table_name h)
              ~store_cond:(C.Cmp ("Disc", C.Eq, V.String t))
              (List.map (fun a -> (a, a)) (Edm.Schema.attribute_names client t)))
    | `Tpt ->
        List.init size (fun i ->
            let t = ty h i in
            let own =
              match Edm.Schema.find_type client t with
              | Some e -> Edm.Entity_type.declared_names e
              | None -> []
            in
            let projected = if List.mem "Id" own then own else "Id" :: own in
            F.entity ~set:(set_name h) ~cond:(C.Is_of t) ~table:(tpt_table_name h i)
              (List.map (fun a -> (a, a)) projected))
  in
  let assoc_frag (name, h1, h2, col) =
    F.assoc ~assoc:name ~table:(tpt_table_name h1 0) ~store_cond:(C.Is_not_null col)
      [ (ty h1 0 ^ ".Id", "Id"); (ty h2 0 ^ ".Id", col) ]
  in
  Mapping.Fragments.of_list
    (List.concat_map frags_of plan @ List.map assoc_frag assoc_specs)

let generate () =
  let client = client_schema () in
  let store = store_schema client in
  (Query.Env.make ~client ~store, fragments client)

let stats () =
  let client = client_schema () in
  let types = List.length (Edm.Schema.types client) in
  let depth h size =
    List.fold_left
      (fun d i -> max d (List.length (Edm.Schema.ancestors client (ty h i)) + 1))
      1
      (List.init size Fun.id)
  in
  let deepest = List.fold_left (fun d (h, s, _) -> max d (depth h s)) 1 plan in
  let largest = List.fold_left (fun m (_, s, _) -> max m s) 0 plan in
  Printf.sprintf
    "%d entity types, %d hierarchies (largest %d, deepest %d levels), %d associations, TPH cap %d"
    types (List.length plan) largest deepest assoc_count tph_cap

(* -- the Fig. 10 SMO suite -------------------------------------------------- *)

let smo_suite () =
  let h1_target = ty 1 3 (* a level-1 type of the big TPT hierarchy *) in
  let new_type parent name =
    Edm.Entity_type.derived ~name ~parent [ ("NewAtt", D.String) ]
  in
  let aep n =
    let count = 1 lsl n in
    let width = 100 in
    let parts =
      List.init count (fun k ->
          let lo = k * width and hi = (k * width) + width in
          let cond =
            if k = 0 then C.Cmp ("Bucket", C.Lt, V.Int hi)
            else if k = count - 1 then C.Cmp ("Bucket", C.Ge, V.Int lo)
            else C.And (C.Cmp ("Bucket", C.Ge, V.Int lo), C.Cmp ("Bucket", C.Lt, V.Int hi))
          in
          {
            Core.Add_entity_part.part_alpha = [ "Id"; "Bucket" ];
            part_cond = cond;
            part_table =
              Relational.Table.make ~name:(Printf.sprintf "TCPart%d_%d" n k) ~key:[ "Id" ]
                ~fks:
                  [ { Relational.Table.fk_columns = [ "Id" ]; ref_table = tpt_table_name 1 3;
                      ref_columns = [ "Id" ] } ]
                [ ("Id", D.Int, `Not_null); ("Bucket", D.Int, `Null) ];
            part_fmap = [ ("Id", "Id"); ("Bucket", "Bucket") ];
          })
    in
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:(Printf.sprintf "CNewPart%d" n) ~parent:h1_target
            ~non_null:[ "Bucket" ] [ ("Bucket", D.Int) ];
        p_ref = Some h1_target;
        parts }
  in
  [
    ( "AE-TPT",
      Core.Smo.Add_entity
        { entity = new_type h1_target "CNewTpt"; alpha = [ "Id"; "NewAtt" ];
          p_ref = Some h1_target;
          table =
            Relational.Table.make ~name:"TCNewTpt" ~key:[ "Id" ]
              ~fks:
                [ { Relational.Table.fk_columns = [ "Id" ]; ref_table = tpt_table_name 1 3;
                    ref_columns = [ "Id" ] } ]
              [ ("Id", D.Int, `Not_null); ("NewAtt", D.String, `Null) ];
          fmap = [ ("Id", "Id"); ("NewAtt", "NewAtt") ] } );
    ( "AE-TPC",
      (* Hierarchy 4 is association-free, so TPC is legal there. *)
      Core.Smo.Add_entity
        { entity = new_type (ty 4 1) "CNewTpc";
          alpha = [ "Id"; attr 4 0; attr 4 1; "NewAtt" ]; p_ref = None;
          table =
            Relational.Table.make ~name:"TCNewTpc" ~key:[ "Id" ]
              [ ("Id", D.Int, `Not_null); (attr 4 0, D.String, `Null);
                (attr 4 1, D.String, `Null); ("NewAtt", D.String, `Null) ];
          fmap =
            [ ("Id", "Id"); (attr 4 0, attr 4 0); (attr 4 1, attr 4 1); ("NewAtt", "NewAtt") ] } );
    ( "AE-TPH",
      Core.Smo.Add_entity_tph
        { entity =
            Edm.Entity_type.derived ~name:"CNewTph" ~parent:(ty 2 2) [];
          table = tph_table_name 2;
          fmap =
            List.map (fun a -> (a, a))
              (let client = client_schema () in
               Edm.Schema.attribute_names client (ty 2 2));
          discriminator = ("Disc", V.String "CNewTph") } );
    ("AEP-1p", aep 1);
    ("AEP-2p", aep 2);
    ("AEP-3p", aep 3);
    ( "AA-FK",
      Core.Smo.Add_assoc_fk
        { assoc =
            { Edm.Association.name = "CNewAssocFk"; end1 = ty 1 0; end2 = ty 3 0;
              mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
          table = tpt_table_name 1 0;
          fmap = [ (ty 1 0 ^ ".Id", "Id"); (ty 3 0 ^ ".Id", "Spare") ] } );
    ( "AA-JT",
      Core.Smo.Add_assoc_jt
        { assoc =
            { Edm.Association.name = "CNewAssocJt"; end1 = ty 1 0; end2 = ty 3 0;
              mult1 = Edm.Association.Many; mult2 = Edm.Association.Many };
          table =
            Relational.Table.make ~name:"TCNewJt" ~key:[ "Lid"; "Rid" ]
              ~fks:
                [ { Relational.Table.fk_columns = [ "Lid" ]; ref_table = tpt_table_name 1 0;
                    ref_columns = [ "Id" ] };
                  { Relational.Table.fk_columns = [ "Rid" ]; ref_table = tpt_table_name 3 0;
                    ref_columns = [ "Id" ] } ]
              [ ("Lid", D.Int, `Not_null); ("Rid", D.Int, `Not_null) ];
          fmap = [ (ty 1 0 ^ ".Id", "Lid"); (ty 3 0 ^ ".Id", "Rid") ] } );
    ( "AP",
      Core.Smo.Add_property
        { etype = ty 1 0; attr = ("CNewProp", D.String);
          target =
            Core.Add_property.To_existing_table { table = tpt_table_name 1 0;
                                                  column = "CNewProp" } } );
  ]

let drop_suite () =
  let ae_tpc = List.assoc "AE-TPC" (smo_suite ()) in
  [
    ("DROP", [], Core.Smo.Drop_entity { etype = ty 1 20 });
    ("DROP-P", [], Core.Smo.Drop_property { etype = ty 1 20; attr = attr 1 20 });
    ("DROP-A", [], Core.Smo.Drop_association { assoc = "Rel27" });
    ("DROP-TPH", [], Core.Smo.Drop_entity { etype = ty 2 20 });
    ("DROP-TPC", [ ae_tpc ], Core.Smo.Drop_entity { etype = "CNewTpc" });
  ]
