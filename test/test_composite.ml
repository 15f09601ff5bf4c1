(* Composite (multi-column) keys through the whole stack: every algorithm
   joins, diffs and validates on key column LISTS, and nothing in the
   evaluation models exercises more than one column — this suite does. *)

open Common
module T = Relational.Table
module F = Mapping.Fragment

let base () =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Parts"
         (Edm.Entity_type.root ~name:"Part" ~key:[ "Vendor"; "Serial" ]
            [ ("Vendor", D.Int); ("Serial", D.Int); ("Label", D.String) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (T.make ~name:"PartsT" ~key:[ "V"; "S" ]
            [ ("V", D.Int, `Not_null); ("S", D.Int, `Not_null); ("Label", D.String, `Null) ])
         Relational.Schema.empty)
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Parts" ~cond:(C.Is_of "Part") ~table:"PartsT"
          [ ("Vendor", "V"); ("Serial", "S"); ("Label", "Label") ] ]
  in
  (Query.Env.make ~client ~store, frags)

let sample client_schema =
  ignore client_schema;
  Edm.Instance.empty
  |> Edm.Instance.add_entity ~set:"Parts"
       (Edm.Instance.entity ~etype:"Part"
          [ ("Vendor", V.Int 1); ("Serial", V.Int 10); ("Label", V.String "bolt") ])
  |> Edm.Instance.add_entity ~set:"Parts"
       (Edm.Instance.entity ~etype:"Part"
          [ ("Vendor", V.Int 1); ("Serial", V.Int 11); ("Label", V.String "nut") ])
  |> Edm.Instance.add_entity ~set:"Parts"
       (Edm.Instance.entity ~etype:"Part"
          [ ("Vendor", V.Int 2); ("Serial", V.Int 10); ("Label", V.String "gear") ])

let test_compile_and_roundtrip () =
  let env, frags = base () in
  let c = ok_exn (Fullc.Compile.compile env frags) in
  let inst = sample env.Query.Env.client in
  let store = ok_exn (Query.View.apply_update_views env c.Fullc.Compile.update_views inst) in
  check Alcotest.int "three rows" 3 (List.length (Relational.Instance.rows store ~table:"PartsT"));
  let back = ok_exn (Query.View.apply_query_views env c.Fullc.Compile.query_views store) in
  checkb "roundtrips" true (Edm.Instance.equal back inst);
  match
    Roundtrip.Check.roundtrips env c.Fullc.Compile.query_views c.Fullc.Compile.update_views
      ~samples:20 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "random roundtrip: %a" Roundtrip.Check.pp_failure f

let test_tpt_child_on_composite_key () =
  let env, frags = base () in
  let st = Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile env frags)) in
  let smo =
    Core.Smo.Add_entity
      { entity =
          Edm.Entity_type.derived ~name:"MachinedPart" ~parent:"Part" [ ("Tolerance", D.Int) ];
        alpha = [ "Vendor"; "Serial"; "Tolerance" ];
        p_ref = Some "Part";
        table =
          T.make ~name:"Machined" ~key:[ "MV"; "MS" ]
            ~fks:[ { T.fk_columns = [ "MV"; "MS" ]; ref_table = "PartsT";
                     ref_columns = [ "V"; "S" ] } ]
            [ ("MV", D.Int, `Not_null); ("MS", D.Int, `Not_null); ("Tolerance", D.Int, `Null) ];
        fmap = [ ("Vendor", "MV"); ("Serial", "MS"); ("Tolerance", "Tolerance") ] }
  in
  let st' = ok_v (Core.Engine.apply st smo) in
  let inst =
    sample env.Query.Env.client
    |> Edm.Instance.add_entity ~set:"Parts"
         (Edm.Instance.entity ~etype:"MachinedPart"
            [ ("Vendor", V.Int 3); ("Serial", V.Int 30); ("Label", V.String "axle");
              ("Tolerance", V.Int 5) ])
  in
  checkb "TPT child over a composite key roundtrips" true
    (ok_exn (roundtrip_ok st' inst))

let test_dml_on_composite_key () =
  let env, frags = base () in
  let c = ok_exn (Fullc.Compile.compile env frags) in
  let inst = sample env.Query.Env.client in
  let delta =
    [
      Dml.Delta.Update_entity
        { set = "Parts"; key = row [ ("Vendor", V.Int 1); ("Serial", V.Int 11) ];
          changes = [ ("Label", V.String "wingnut") ] };
      Dml.Delta.Delete_entity
        { set = "Parts"; key = row [ ("Vendor", V.Int 2); ("Serial", V.Int 10) ] };
    ]
  in
  let script, _, new_store =
    ok_exn (Dml.Translate.translate env c.Fullc.Compile.update_views ~old_client:inst ~delta)
  in
  let sql = Dml.Translate.to_sql script in
  checkb "update keyed on both columns" true
    (contains ~sub:"WHERE S = 11 AND V = 1" sql || contains ~sub:"WHERE V = 1 AND S = 11" sql);
  let old_store = ok_exn (Query.View.apply_update_views env c.Fullc.Compile.update_views inst) in
  let applied = ok_exn (Dml.Translate.apply_script old_store script) in
  checkb "script reproduces the new store" true (Relational.Instance.equal applied new_store)

(* -- drop and re-add inside a TPH hierarchy ----------------------------------- *)

let test_tph_drop_and_readd () =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Items"
         (Edm.Entity_type.root ~name:"Item" ~key:[ "Id" ] [ ("Id", D.Int); ("Label", D.String) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (T.make ~name:"Inv" ~key:[ "Id" ]
            [ ("Id", D.Int, `Not_null); ("Label", D.String, `Null); ("Disc", D.String, `Null);
              ("Pages", D.Int, `Null) ])
         Relational.Schema.empty)
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Items" ~cond:(C.Is_of "Item") ~table:"Inv"
          ~store_cond:(C.Cmp ("Disc", C.Eq, V.String "item"))
          [ ("Id", "Id"); ("Label", "Label") ] ]
  in
  let st = ok_exn (Core.State.bootstrap (Query.Env.make ~client ~store) frags) in
  let book disc =
    Core.Smo.Add_entity_tph
      { entity = Edm.Entity_type.derived ~name:"Book" ~parent:"Item" [ ("Pages", D.Int) ];
        table = "Inv";
        fmap = [ ("Id", "Id"); ("Label", "Label"); ("Pages", "Pages") ];
        discriminator = ("Disc", V.String disc) }
  in
  let st = ok_v (Core.Engine.apply st (book "book")) in
  let st = ok_v (Core.Engine.apply st (Core.Smo.Drop_entity { etype = "Book" })) in
  checkb "type gone" false (Edm.Schema.mem_type st.Core.State.env.Query.Env.client "Book");
  check Alcotest.int "fragment gone" 1 (Mapping.Fragments.size st.Core.State.fragments);
  (* The discriminator region is free again. *)
  let st = ok_v (Core.Engine.apply st (book "book")) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Items"
         (Edm.Instance.entity ~etype:"Book"
            [ ("Id", V.Int 1); ("Label", V.String "ocaml"); ("Pages", V.Int 200) ])
  in
  checkb "re-added type roundtrips" true (ok_exn (roundtrip_ok st inst))

let () =
  Alcotest.run "composite keys"
    [
      ( "composite keys",
        [
          Alcotest.test_case "compile and roundtrip" `Quick test_compile_and_roundtrip;
          Alcotest.test_case "TPT child" `Quick test_tpt_child_on_composite_key;
          Alcotest.test_case "DML" `Quick test_dml_on_composite_key;
        ] );
      ( "tph lifecycle",
        [ Alcotest.test_case "drop and re-add" `Quick test_tph_drop_and_readd ] );
    ]
