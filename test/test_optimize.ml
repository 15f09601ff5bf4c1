open Common
module P = Workload.Paper_example

let env = P.stage4.P.env

let view_stats v = Mapping.Views.stats (v : Query.View.t).Query.View.query

let test_paper_example_shapes () =
  let c = ok_exn (Fullc.Compile.compile ~optimize:true env P.stage4.P.fragments) in
  (* The optimized Person view has the Fig. 2 shape: one LEFT OUTER JOIN
     (Emp under HR), one UNION ALL (Client), no FULL OUTER JOIN. *)
  let foj, loj, uni =
    view_stats (Option.get (Query.View.entity_view c.Core.State.query_views "Person"))
  in
  check Alcotest.int "no full outer joins" 0 foj;
  check Alcotest.int "one left outer join" 1 loj;
  check Alcotest.int "one union" 1 uni;
  (* The Client table's update view: the association branch rides on the
     Customer branch with a LEFT OUTER JOIN. *)
  let foj_u, loj_u, _ =
    Mapping.Views.stats (Option.get (Query.View.table_view c.Core.State.update_views "Client"))
  in
  check Alcotest.int "update view: no FOJ" 0 foj_u;
  check Alcotest.int "update view: one LOJ" 1 loj_u

let test_tph_becomes_unions () =
  let env', frags = Workload.Hub_rim.generate ~n:2 ~m:1 ~style:`Tph in
  let c = ok_exn (Fullc.Compile.compile ~optimize:true env' frags) in
  let foj, _, uni =
    view_stats (Option.get (Query.View.entity_view c.Core.State.query_views "Hub1"))
  in
  check Alcotest.int "TPH view: no full outer joins" 0 foj;
  checkb "TPH view: unions" true (uni >= 3)

let test_chain_update_views_loj () =
  let env', frags = Workload.Chain.generate ~size:4 in
  let c = ok_exn (Fullc.Compile.compile ~optimize:true env' frags) in
  List.iter
    (fun (table, q) ->
      let foj, _, _ = Mapping.Views.stats q in
      check Alcotest.int (table ^ ": no full outer joins") 0 foj)
    (Query.View.update_view_bindings c.Core.State.update_views)

let equivalent_on_samples env frags =
  let plain = ok_exn (Fullc.Compile.compile ~validate:false env frags) in
  let opt = ok_exn (Fullc.Compile.compile ~validate:false ~optimize:true env frags) in
  List.for_all
    (fun seed ->
      let inst = Roundtrip.Generate.instance ~seed env.Query.Env.client in
      let store_p = ok_exn (Query.View.apply_update_views env plain.Core.State.update_views inst) in
      let store_o = ok_exn (Query.View.apply_update_views env opt.Core.State.update_views inst) in
      Relational.Instance.equal store_p store_o
      &&
      let client_p = ok_exn (Query.View.apply_query_views env plain.Core.State.query_views store_p) in
      let client_o = ok_exn (Query.View.apply_query_views env opt.Core.State.query_views store_p) in
      Edm.Instance.equal client_p client_o)
    (List.init 25 Fun.id)

let test_optimized_equivalent () =
  checkb "paper example" true (equivalent_on_samples env P.stage4.P.fragments);
  let env', frags = Workload.Hub_rim.generate ~n:2 ~m:2 ~style:`Tph in
  checkb "hub-rim TPH" true (equivalent_on_samples env' frags);
  let env', frags = Workload.Hub_rim.generate ~n:2 ~m:2 ~style:`Tpt in
  checkb "hub-rim TPT" true (equivalent_on_samples env' frags);
  let env', frags = Workload.Chain.generate ~size:6 in
  checkb "chain" true (equivalent_on_samples env' frags)

let test_optimized_roundtrips () =
  let c = ok_exn (Fullc.Compile.compile ~optimize:true env P.stage4.P.fragments) in
  match
    Roundtrip.Check.roundtrips env c.Core.State.query_views c.Core.State.update_views
      ~samples:40 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "optimized views broke roundtripping: %a" Roundtrip.Check.pp_failure f

(* -- drop SMOs -------------------------------------------------------------------- *)

let test_drop_association () =
  let st = ok_exn (Fullc.Compile.compile env P.stage4.P.fragments) in
  let st' = ok_v (Core.Engine.apply st (Core.Smo.Drop_association { assoc = "Supports" })) in
  checkb "association removed from the schema" true
    (Edm.Schema.find_association st'.Core.State.env.Query.Env.client "Supports" = None);
  check Alcotest.int "fragment removed" 3 (Mapping.Fragments.size st'.Core.State.fragments);
  checkb "assoc view removed" true
    (Query.View.assoc_view st'.Core.State.query_views "Supports" = None);
  let inst =
    restrict_new_components ~old_schema:st'.Core.State.env.Query.Env.client
      P.sample_client
  in
  checkb "roundtrips without the association" true (ok_exn (roundtrip_ok st' inst));
  (* The freed column is reusable: re-adding the association validates. *)
  let re_add =
    Core.Smo.Add_assoc_fk
      { assoc =
          { Edm.Association.name = "Supports"; end1 = "Customer"; end2 = "Employee";
            mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
        table = "Client";
        fmap = [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] }
  in
  checkb "column freed for reuse" true (Result.is_ok (Core.Engine.apply st' re_add))

let test_drop_join_table_association () =
  let st = ok_exn (Fullc.Compile.compile env P.stage4.P.fragments) in
  let jt =
    Core.Smo.Add_assoc_jt
      { assoc =
          { Edm.Association.name = "Mentors"; end1 = "Employee"; end2 = "Customer";
            mult1 = Edm.Association.Many; mult2 = Edm.Association.Many };
        table =
          Relational.Table.make ~name:"MentorsT" ~key:[ "Eid"; "Cid" ]
            [ ("Eid", D.Int, `Not_null); ("Cid", D.Int, `Not_null) ];
        fmap = [ ("Employee.Id", "Eid"); ("Customer.Id", "Cid") ] }
  in
  let st = ok_v (Core.Engine.apply st jt) in
  let st' = ok_v (Core.Engine.apply st (Core.Smo.Drop_association { assoc = "Mentors" })) in
  checkb "join table loses its update view" true
    (Query.View.table_view st'.Core.State.update_views "MentorsT" = None)

let test_drop_property () =
  let st = ok_exn (Fullc.Compile.compile env P.stage4.P.fragments) in
  let st =
    ok_v
      (Core.Engine.apply st
         (Core.Smo.Add_property
            { etype = "Employee"; attr = ("Level", D.Int);
              target = Core.Add_property.To_existing_table { table = "Emp"; column = "Level" } }))
  in
  let st' =
    ok_v (Core.Engine.apply st (Core.Smo.Drop_property { etype = "Employee"; attr = "Level" }))
  in
  checkb "attribute removed" true
    (Edm.Schema.attribute_domain st'.Core.State.env.Query.Env.client "Employee" "Level" = None);
  check Alcotest.int "property fragment dropped" 4 (Mapping.Fragments.size st'.Core.State.fragments);
  checkb "roundtrips after the drop" true (ok_exn (roundtrip_ok st' P.sample_client))

let test_drop_property_guards () =
  let st = ok_exn (Fullc.Compile.compile env P.stage4.P.fragments) in
  checkb "key attribute refused" true
    (Result.is_error
       (Core.Engine.apply st (Core.Smo.Drop_property { etype = "Person"; attr = "Id" })));
  checkb "inherited attribute refused" true
    (Result.is_error
       (Core.Engine.apply st (Core.Smo.Drop_property { etype = "Employee"; attr = "Name" })));
  (* An attribute used in a partition condition cannot be dropped. *)
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"People"
         (Edm.Entity_type.root ~name:"Human" ~key:[ "Hid" ] ~non_null:[ "Age" ]
            [ ("Hid", D.Int); ("Age", D.Int) ])
         Edm.Schema.empty)
  in
  let store =
    List.fold_left
      (fun acc t -> ok_exn (Relational.Schema.add_table t acc))
      Relational.Schema.empty
      [
        Relational.Table.make ~name:"Adult" ~key:[ "Hid" ]
          [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ];
        Relational.Table.make ~name:"Young" ~key:[ "Hid" ]
          [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ];
      ]
  in
  let frags =
    Mapping.Fragments.of_list
      [
        Mapping.Fragment.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Ge, V.Int 18)) ~table:"Adult"
          [ ("Hid", "Hid"); ("Age", "Age") ];
        Mapping.Fragment.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Lt, V.Int 18)) ~table:"Young"
          [ ("Hid", "Hid"); ("Age", "Age") ];
      ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  match Core.Engine.apply st (Core.Smo.Drop_property { etype = "Human"; attr = "Age" }) with
  | Ok _ -> Alcotest.fail "expected the partition attribute drop to abort"
  | Error e -> checkb "mentions the condition" true (contains ~sub:"tested by fragment" (show_v e))

let () =
  Alcotest.run "optimize"
    [
      ( "view optimizer",
        [
          Alcotest.test_case "paper example shapes" `Quick test_paper_example_shapes;
          Alcotest.test_case "TPH becomes unions" `Quick test_tph_becomes_unions;
          Alcotest.test_case "chain update views become LOJ" `Quick test_chain_update_views_loj;
          Alcotest.test_case "optimized views equivalent" `Quick test_optimized_equivalent;
          Alcotest.test_case "optimized views roundtrip" `Quick test_optimized_roundtrips;
        ] );
      ( "drop SMOs",
        [
          Alcotest.test_case "drop association (FK)" `Quick test_drop_association;
          Alcotest.test_case "drop association (join table)" `Quick test_drop_join_table_association;
          Alcotest.test_case "drop property" `Quick test_drop_property;
          Alcotest.test_case "drop property guards" `Quick test_drop_property_guards;
        ] );
    ]
