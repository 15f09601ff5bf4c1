module D = Datum.Domain
module C = Query.Cond
module F = Mapping.Fragment
module V = Datum.Value

let ok = function Ok x -> x | Error e -> invalid_arg ("Workload.Chain: " ^ e)
let etype i = Printf.sprintf "Entity%d" i
let set i = Printf.sprintf "Entities%d" i
let table i = Printf.sprintf "TEntity%d" i
let assoc_a i = Printf.sprintf "NextA%d" i
let assoc_b i = Printf.sprintf "NextB%d" i

let attrs = [ "EntityAtt2"; "EntityAtt3"; "EntityAtt4" ]

let generate ~size =
  assert (size >= 1);
  let client =
    List.fold_left
      (fun s i ->
        ok
          (Edm.Schema.add_root ~set:(set i)
             (Edm.Entity_type.root ~name:(etype i) ~key:[ "Id" ]
                (("Id", D.Int) :: List.map (fun a -> (a, D.String)) attrs))
             s))
      Edm.Schema.empty
      (List.init size (fun i -> i + 1))
  in
  let client =
    List.fold_left
      (fun s i ->
        let s =
          ok
            (Edm.Schema.add_association
               { Edm.Association.name = assoc_a i; end1 = etype i; end2 = etype (i + 1);
                 mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
               s)
        in
        ok
          (Edm.Schema.add_association
             { Edm.Association.name = assoc_b i; end1 = etype i; end2 = etype (i + 1);
               mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
             s))
      client
      (List.init (size - 1) (fun i -> i + 1))
  in
  (* One table per chain type, and TLone for the isolated type below. *)
  let store =
    Relational.Table.make ~name:"TLone" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("LAttr", D.String, `Null) ]
    :: List.map
         (fun i ->
           let fks =
             if i < size then
               [ { Relational.Table.fk_columns = [ "FkA" ]; ref_table = table (i + 1);
                   ref_columns = [ "Id" ] };
                 { Relational.Table.fk_columns = [ "FkB" ]; ref_table = table (i + 1);
                   ref_columns = [ "Id" ] } ]
             else []
           in
           Relational.Table.make ~name:(table i) ~key:[ "Id" ] ~fks
             ([ ("Id", D.Int, `Not_null); ("Disc", D.String, `Null);
                ("Extra", D.Int, `Null); ("FkA", D.Int, `Null); ("FkB", D.Int, `Null) ]
             @ List.map (fun a -> (a, D.String, `Null)) attrs))
         (List.init size (fun i -> i + 1))
    |> Relational.Schema.of_tables |> Result.map_error snd |> ok
  in
  let frags =
    List.concat_map
      (fun i ->
        let entity =
          F.entity ~set:(set i) ~cond:(C.Is_of (etype i)) ~table:(table i)
            ~store_cond:(C.Cmp ("Disc", C.Eq, V.String "base"))
            (("Id", "Id") :: List.map (fun a -> (a, a)) attrs)
        in
        if i = size then [ entity ]
        else
          [
            entity;
            F.assoc ~assoc:(assoc_a i) ~table:(table i) ~store_cond:(C.Is_not_null "FkA")
              [ (etype i ^ ".Id", "Id"); (etype (i + 1) ^ ".Id", "FkA") ];
            F.assoc ~assoc:(assoc_b i) ~table:(table i) ~store_cond:(C.Is_not_null "FkB")
              [ (etype i ^ ".Id", "Id"); (etype (i + 1) ^ ".Id", "FkB") ];
          ])
      (List.init size (fun i -> i + 1))
  in
  (* An isolated type with no associations: the AE-TPC success target (a
     TPC addition below an association endpoint rightly fails validation,
     Section 4.2 / Fig. 6). *)
  let client =
    ok
      (Edm.Schema.add_root ~set:"Lones"
         (Edm.Entity_type.root ~name:"Lone" ~key:[ "Id" ]
            [ ("Id", D.Int); ("LAttr", D.String) ])
         client)
  in
  let frags =
    frags
    @ [ F.entity ~set:"Lones" ~cond:(C.Is_of "Lone") ~table:"TLone"
          [ ("Id", "Id"); ("LAttr", "LAttr") ] ]
  in
  (Query.Env.make ~client ~store, Mapping.Fragments.of_list frags)

(* -- the Fig. 9 SMO suite -------------------------------------------------- *)

let new_type ~at name extra_attrs =
  Edm.Entity_type.derived ~name ~parent:(etype at)
    (List.map (fun a -> (a, D.String)) extra_attrs)

let smo_suite ~at =
  let parent_table = table at in
  let tpt_table =
    Relational.Table.make ~name:"TNewTpt" ~key:[ "Id" ]
      ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = parent_table;
               ref_columns = [ "Id" ] } ]
      [ ("Id", D.Int, `Not_null); ("NewAtt", D.String, `Null) ]
  in
  let tpc_table =
    Relational.Table.make ~name:"TNewTpc" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("LAttr", D.String, `Null); ("NewAtt", D.String, `Null) ]
  in
  let aep n =
    (* 2^n partition tables over ranges of a new non-null integer attribute,
       each with a foreign key to the parent's table (TPT vertical style). *)
    let count = 1 lsl n in
    let width = 100 in
    let parts =
      List.init count (fun k ->
        let lo = k * width in
        let hi = lo + width in
        let cond =
          if k = 0 then C.Cmp ("Bucket", C.Lt, V.Int hi)
          else if k = count - 1 then C.Cmp ("Bucket", C.Ge, V.Int lo)
          else C.And (C.Cmp ("Bucket", C.Ge, V.Int lo), C.Cmp ("Bucket", C.Lt, V.Int hi))
        in
        {
          Core.Add_entity_part.part_alpha = [ "Id"; "Bucket" ];
          part_cond = cond;
          part_table =
            Relational.Table.make ~name:(Printf.sprintf "TNewPart%d_%d" n k) ~key:[ "Id" ]
              ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = parent_table;
                       ref_columns = [ "Id" ] } ]
              [ ("Id", D.Int, `Not_null); ("Bucket", D.Int, `Null) ];
          part_fmap = [ ("Id", "Id"); ("Bucket", "Bucket") ];
        })
    in
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:(Printf.sprintf "NewPart%d" n) ~parent:(etype at)
            ~non_null:[ "Bucket" ] [ ("Bucket", D.Int) ];
        p_ref = Some (etype at);
        parts }
  in
  [
    ( "AE-TPT",
      Core.Smo.Add_entity
        { entity = new_type ~at "NewTpt" [ "NewAtt" ]; alpha = [ "Id"; "NewAtt" ];
          p_ref = Some (etype at); table = tpt_table;
          fmap = [ ("Id", "Id"); ("NewAtt", "NewAtt") ] } );
    ( "AE-TPC",
      Core.Smo.Add_entity
        { entity =
            Edm.Entity_type.derived ~name:"NewTpc" ~parent:"Lone"
              [ ("NewAtt", D.String) ];
          alpha = [ "Id"; "LAttr"; "NewAtt" ]; p_ref = None; table = tpc_table;
          fmap = [ ("Id", "Id"); ("LAttr", "LAttr"); ("NewAtt", "NewAtt") ] } );
    ( "AE-TPC-fk",
      (* The Fig. 6 shape: a TPC addition below an association endpoint —
         validation is expected to abort (Section 4.2). *)
      Core.Smo.Add_entity
        { entity = new_type ~at "NewTpcF" [ "NewAtt" ];
          alpha = "Id" :: "NewAtt" :: attrs; p_ref = None;
          table =
            Relational.Table.make ~name:"TNewTpcF" ~key:[ "Id" ]
              (("Id", D.Int, `Not_null) :: ("NewAtt", D.String, `Null)
              :: List.map (fun a -> (a, D.String, `Null)) attrs);
          fmap = List.map (fun a -> (a, a)) ("Id" :: "NewAtt" :: attrs) } );
    ( "AE-TPH",
      Core.Smo.Add_entity_tph
        { entity = new_type ~at "NewTph" [];
          table = parent_table;
          fmap = List.map (fun a -> (a, a)) ("Id" :: attrs);
          discriminator = ("Disc", V.String "newtph") } );
    ("AEP-1p", aep 1);
    ("AEP-2p", aep 2);
    ("AEP-3p", aep 3);
    ( "AA-FK",
      Core.Smo.Add_assoc_fk
        { assoc =
            { Edm.Association.name = "NewAssocFk"; end1 = etype at; end2 = etype (at + 1);
              mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
          table = parent_table;
          fmap = [ (etype at ^ ".Id", "Id"); (etype (at + 1) ^ ".Id", "Extra") ] } );
    ( "AA-JT",
      Core.Smo.Add_assoc_jt
        { assoc =
            { Edm.Association.name = "NewAssocJt"; end1 = etype at; end2 = etype (at + 1);
              mult1 = Edm.Association.Many; mult2 = Edm.Association.Many };
          table =
            Relational.Table.make ~name:"TNewJt" ~key:[ "Lid"; "Rid" ]
              ~fks:
                [ { Relational.Table.fk_columns = [ "Lid" ]; ref_table = parent_table;
                    ref_columns = [ "Id" ] };
                  { Relational.Table.fk_columns = [ "Rid" ]; ref_table = table (at + 1);
                    ref_columns = [ "Id" ] } ]
              [ ("Lid", D.Int, `Not_null); ("Rid", D.Int, `Not_null) ];
          fmap = [ (etype at ^ ".Id", "Lid"); (etype (at + 1) ^ ".Id", "Rid") ] } );
    ( "AP",
      Core.Smo.Add_property
        { etype = etype at; attr = ("NewProp", D.String);
          target = Core.Add_property.To_existing_table { table = parent_table; column = "NewProp" } } );
  ]
