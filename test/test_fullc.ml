open Common
module P = Workload.Paper_example
module F = Mapping.Fragment

let env = P.stage4.P.env

let compiled =
  lazy
    (match Fullc.Compile.compile env P.stage4.P.fragments with
    | Ok c -> c
    | Error e -> Alcotest.failf "full compilation of the paper example failed: %s" e)

let test_compiles () =
  let c = Lazy.force compiled in
  checkb "views produced for all types" true
    (List.length (Query.View.entity_view_bindings c.Fullc.Compile.query_views) = 3);
  checkb "assoc view produced" true
    (Query.View.assoc_view c.Fullc.Compile.query_views "Supports" <> None);
  checkb "update views for all tables" true
    (List.length (Query.View.update_view_bindings c.Fullc.Compile.update_views) = 3);
  checkb "cells visited" true (c.Fullc.Compile.report.Fullc.Validate.cells_visited > 0);
  checkb "fk checks ran" true (c.Fullc.Compile.report.Fullc.Validate.containment_checks >= 2)

let test_update_views_materialize () =
  let c = Lazy.force compiled in
  let store = ok_exn (Query.View.apply_update_views env c.Fullc.Compile.update_views P.sample_client) in
  checkb "store state matches the canonical one" true
    (Relational.Instance.equal store P.sample_store)

let test_query_views_materialize () =
  let c = Lazy.force compiled in
  let client = ok_exn (Query.View.apply_query_views env c.Fullc.Compile.query_views P.sample_store) in
  checkb "client state recovered from the store" true
    (Edm.Instance.equal client P.sample_client)

let test_roundtrip_sample () =
  let c = Lazy.force compiled in
  let back =
    ok_exn
      (Query.View.roundtrip env c.Fullc.Compile.query_views c.Fullc.Compile.update_views
         P.sample_client)
  in
  checkb "V ; Q is the identity on the sample" true (Edm.Instance.equal back P.sample_client)

let prop_roundtrip =
  qtest "V ; Q is the identity on random client states" ~count:150 arb_client_instance
    (fun inst ->
      let c = Lazy.force compiled in
      match
        Query.View.roundtrip env c.Fullc.Compile.query_views c.Fullc.Compile.update_views inst
      with
      | Error e -> QCheck.Test.fail_reportf "roundtrip error: %s" e
      | Ok back ->
          Edm.Instance.equal back inst
          || QCheck.Test.fail_reportf "lost data:@.in:  %a@.out: %a" Edm.Instance.pp inst
               Edm.Instance.pp back)

let prop_store_satisfies_mapping =
  qtest "update views produce M-related store states" ~count:100 arb_client_instance
    (fun inst ->
      let c = Lazy.force compiled in
      match Query.View.apply_update_views env c.Fullc.Compile.update_views inst with
      | Error e -> QCheck.Test.fail_reportf "update views: %s" e
      | Ok store -> Mapping.Fragments.related env inst store P.stage4.P.fragments)

let prop_store_conforms =
  qtest "update views preserve store integrity" ~count:100 arb_client_instance (fun inst ->
      let c = Lazy.force compiled in
      match Query.View.apply_update_views env c.Fullc.Compile.update_views inst with
      | Error e -> QCheck.Test.fail_reportf "update views: %s" e
      | Ok store -> (
          match Relational.Instance.conforms env.Query.Env.store store with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "store violates constraints: %s" e))

(* -- cells ---------------------------------------------------------------- *)

let cells env frags ~table =
  Result.map List.rev (Fullc.Cells.fold env frags ~table ~init:[] ~f:(fun acc c -> c :: acc))

let test_cells_paper_example () =
  (* Client has two fragments (φ3, φ4); φ4 has one atom: Eid IS NOT NULL. *)
  let client = ok_exn (cells env P.stage4.P.fragments ~table:"Client") in
  check Alcotest.int "two satisfiable cells" 2 (List.length client);
  let actives = List.map (fun c -> List.length c.Fullc.Cells.active) client in
  check (Alcotest.list Alcotest.int) "phi3 always active, phi4 in one cell" [ 1; 2 ]
    (List.sort compare actives);
  let hr = ok_exn (cells env P.stage4.P.fragments ~table:"HR") in
  check Alcotest.int "unconditioned table has one cell" 1 (List.length hr)

let test_cells_tph_growth () =
  (* A TPH table with k discriminator atoms has k satisfiable singleton
     cells, the all-false cell, and no others: 2^k enumerated, k+1 kept. *)
  let mk_schema k =
    let store =
      ok_exn
        (Relational.Schema.add_table
           (Relational.Table.make ~name:"T" ~key:[ "Id" ]
              (("Id", D.Int, `Not_null) :: ("Disc", D.String, `Null)
              :: List.init k (fun i -> (Printf.sprintf "A%d" i, D.String, `Null))))
           Relational.Schema.empty)
    in
    let client =
      List.fold_left
        (fun acc i ->
          ok_exn
            (Edm.Schema.add_derived
               (Edm.Entity_type.derived ~name:(Printf.sprintf "E%d" i) ~parent:"E0" [])
               acc))
        (ok_exn
           (Edm.Schema.add_root ~set:"Es"
              (Edm.Entity_type.root ~name:"E0" ~key:[ "Id" ] [ ("Id", D.Int) ])
              Edm.Schema.empty))
        (List.init (k - 1) (fun i -> i + 1))
    in
    let frags =
      Mapping.Fragments.of_list
        (List.init k (fun i ->
             F.entity ~set:"Es"
               ~cond:(C.Is_of_only (Printf.sprintf "E%d" i))
               ~table:"T"
               ~store_cond:(C.Cmp ("Disc", C.Eq, V.String (Printf.sprintf "c%d" i)))
               [ ("Id", "Id") ]))
    in
    (Query.Env.make ~client ~store, frags)
  in
  let env5, frags5 = mk_schema 5 in
  check Alcotest.int "k+1 satisfiable cells at k=5" 6
    (List.length (ok_exn (cells env5 frags5 ~table:"T")));
  (* The atom bound guards against runaway enumerations. *)
  let env30, frags30 = mk_schema 30 in
  checkb "k=30 rejected by the bound" true
    (Result.is_error (cells env30 frags30 ~table:"T"))

(* Store conditions on one Decimal column [W] of a table [T]. *)
let decimal_column_cells conds =
  let store =
    ok_exn
      (Relational.Schema.add_table
         (Relational.Table.make ~name:"T" ~key:[ "Id" ]
            [ ("Id", D.Int, `Not_null); ("W", D.Decimal, `Null) ])
         Relational.Schema.empty)
  in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Es"
         (Edm.Entity_type.root ~name:"E" ~key:[ "Id" ] [ ("Id", D.Int) ])
         Edm.Schema.empty)
  in
  let frag store_cond =
    F.entity ~set:"Es" ~cond:(C.Is_of "E") ~table:"T" ~store_cond [ ("Id", "Id") ]
  in
  let frags = Mapping.Fragments.of_list (List.map frag conds) in
  ok_exn (cells (Query.Env.make ~client ~store) frags ~table:"T")

(* [W > 1.0] and [W < 1.2]: every valuation is satisfiable, both-true by a W
   between the constants.  [W > 1] (an Int) and [W IS NOT NULL]: a non-null
   W may be an Int up to 1, so three valuations are. *)
let test_cells_decimal_between () =
  let all =
    decimal_column_cells [ C.Cmp ("W", C.Gt, V.Decimal 1.0); C.Cmp ("W", C.Lt, V.Decimal 1.2) ]
  in
  check Alcotest.int "four satisfiable cells" 4 (List.length all);
  checkb "a cell where both fragments are active" true
    (List.exists (fun c -> List.length c.Fullc.Cells.active = 2) all);
  check Alcotest.int "three cells for an Int bound on a Decimal column" 3
    (List.length (decimal_column_cells [ C.Cmp ("W", C.Gt, V.Int 1); C.Is_not_null "W" ]))

(* -- validation negatives -------------------------------------------------- *)

let test_validation_coverage_failure () =
  (* Drop φ2: Employee's Department is no longer covered. *)
  let frags = Mapping.Fragments.of_list [ P.phi1'; P.phi3; P.phi4 ] in
  match Fullc.Compile.compile env frags with
  | Ok _ -> Alcotest.fail "expected coverage failure"
  | Error e ->
      checkb "mentions the lost attribute" true
        (contains ~sub:"Department" e)

let test_validation_fk_failure () =
  (* Break the FK direction: map Employee alone to Emp without mapping its
     ancestor rows to HR; Emp.Id -> HR.Id can then dangle. *)
  let client =
    ok_exn
      (Edm.Schema.add_derived
         (Edm.Entity_type.derived ~name:"Employee" ~parent:"Person" [ ("Department", D.String) ])
         (ok_exn
            (Edm.Schema.add_root ~set:"Persons"
               (Edm.Entity_type.root ~name:"Person" ~key:[ "Id" ]
                  [ ("Id", D.Int); ("Name", D.String) ])
               Edm.Schema.empty)))
  in
  let store =
    List.fold_left
      (fun acc t -> ok_exn (Relational.Schema.add_table t acc))
      Relational.Schema.empty
      [
        Relational.Table.make ~name:"HR" ~key:[ "Id" ]
          [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null) ];
        Relational.Table.make ~name:"Emp" ~key:[ "Id" ]
          ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
          [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null); ("Name", D.String, `Null) ];
      ]
  in
  let env' = Query.Env.make ~client ~store in
  let frags =
    Mapping.Fragments.of_list
      [
        (* Persons that are ONLY Person go to HR; Employees keep everything in
           Emp (TPC-style) — but Emp.Id -> HR.Id now dangles for employees. *)
        F.entity ~set:"Persons" ~cond:(C.Is_of_only "Person") ~table:"HR"
          [ ("Id", "Id"); ("Name", "Name") ];
        F.entity ~set:"Persons" ~cond:(C.Is_of "Employee") ~table:"Emp"
          [ ("Id", "Id"); ("Name", "Name"); ("Department", "Dept") ];
      ]
  in
  match Fullc.Compile.compile env' frags with
  | Ok _ -> Alcotest.fail "expected foreign-key validation failure"
  | Error e -> checkb "mentions a foreign key" true (contains ~sub:"foreign key" e)

let test_validation_alike_types () =
  (* Paper stage 2 without φ2 and without Employee.Department: HR alone
     holds persons and employees, and no column says which is which. *)
  let stage2 = P.stage2.P.env in
  let client =
    ok_exn (Edm.Schema.remove_attribute ~etype:"Employee" "Department" stage2.Query.Env.client)
  in
  let env' = Query.Env.make ~client ~store:stage2.Query.Env.store in
  let frags = Mapping.Fragments.of_list [ P.phi1 ] in
  List.iter
    (fun validate ->
      match Fullc.Compile.compile ~validate env' frags with
      | Ok _ -> Alcotest.failf "validate=%b: expected the alike types to be rejected" validate
      | Error e ->
          checkb "names both types" true
            (contains ~sub:"Person" e && contains ~sub:"Employee" e && contains ~sub:"Persons" e))
    [ true; false ]

let test_validation_nullability () =
  (* Leave Client.Cid unmapped is impossible (key), but a non-nullable
     non-key column must be rejected. *)
  let store =
    ok_exn
      (Relational.Schema.add_table
         (Relational.Table.make ~name:"H2" ~key:[ "Id" ]
            [ ("Id", D.Int, `Not_null); ("Name", D.String, `Not_null) ])
         Relational.Schema.empty)
  in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Ps"
         (Edm.Entity_type.root ~name:"P" ~key:[ "Id" ] [ ("Id", D.Int) ])
         Edm.Schema.empty)
  in
  let env' = Query.Env.make ~client ~store in
  let frags = Mapping.Fragments.of_list [ F.entity ~set:"Ps" ~cond:C.True ~table:"H2" [ ("Id", "Id") ] ] in
  match Fullc.Compile.compile env' frags with
  | Ok _ -> Alcotest.fail "expected nullability failure"
  | Error e -> checkb "mentions the column" true (contains ~sub:"Name" e)

(* -- partitioned mapping (Section 3.3) ------------------------------------- *)

let adult_young_env_frags =
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
        F.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Ge, V.Int 18)) ~table:"Adult"
          [ ("Hid", "Hid"); ("Age", "Age") ];
        F.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Lt, V.Int 18)) ~table:"Young"
          [ ("Hid", "Hid"); ("Age", "Age") ];
      ]
  in
  (Query.Env.make ~client ~store, frags)

let test_partitioned_roundtrip () =
  let env', frags = adult_young_env_frags in
  let c = ok_exn (Fullc.Compile.compile env' frags) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Human" [ ("Hid", V.Int 1); ("Age", V.Int 30) ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Human" [ ("Hid", V.Int 2); ("Age", V.Int 12) ])
  in
  let back =
    ok_exn (Query.View.roundtrip env' c.Fullc.Compile.query_views c.Fullc.Compile.update_views inst)
  in
  checkb "partitioned mapping roundtrips" true (Edm.Instance.equal back inst);
  let store = ok_exn (Query.View.apply_update_views env' c.Fullc.Compile.update_views inst) in
  check Alcotest.int "adult row stored" 1
    (List.length (Relational.Instance.rows store ~table:"Adult"));
  check Alcotest.int "young row stored" 1
    (List.length (Relational.Instance.rows store ~table:"Young"))


(* examples/models/acct.imc after acct_gold.smo, as one mapping: TGoldX's
   foreign key into TGold holds because both hold the Vips with
   Tier = "gold". *)
let test_gold_fk () =
  let env, frags = acct_model () in
  let client = ok_exn (Edm.Schema.add_derived gold_vip env.Query.Env.client) in
  let store =
    List.fold_left
      (fun store (p : Core.Add_entity_part.part) ->
        ok_exn (Relational.Schema.add_table p.part_table store))
      env.Query.Env.store gold_parts
  in
  let frags =
    List.fold_left
      (fun frags (p : Core.Add_entity_part.part) ->
        Mapping.Fragments.add
          (F.entity ~set:"Accts" ~cond:(C.And (C.Is_of "Vip", p.part_cond))
             ~table:p.part_table.Relational.Table.name p.part_fmap)
          frags)
      frags gold_parts
  in
  let env = Query.Env.make ~client ~store in
  let c = ok_exn (Fullc.Compile.compile env frags) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Accts" (Edm.Instance.entity ~etype:"Acct" [ ("Id", V.Int 1) ])
    |> Edm.Instance.add_entity ~set:"Accts"
         (Edm.Instance.entity ~etype:"Vip" [ ("Id", V.Int 2); ("Tier", V.String "gold") ])
  in
  checkb "gold Vip roundtrips" true
    (Edm.Instance.equal inst
       (ok_exn (Query.View.roundtrip env c.Fullc.Compile.query_views c.Fullc.Compile.update_views inst)))

let test_partitioned_coverage_gap () =
  (* Age >= 18 / Age < 10 leaves a gap: validation must fail. *)
  let env', _ = adult_young_env_frags in
  let frags =
    Mapping.Fragments.of_list
      [
        F.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Ge, V.Int 18)) ~table:"Adult"
          [ ("Hid", "Hid"); ("Age", "Age") ];
        F.entity ~set:"People" ~cond:(C.Cmp ("Age", C.Lt, V.Int 10)) ~table:"Young"
          [ ("Hid", "Hid"); ("Age", "Age") ];
      ]
  in
  checkb "gap detected" true (Result.is_error (Fullc.Compile.compile env' frags))

let () =
  Alcotest.run "fullc"
    [
      ( "paper example",
        [
          Alcotest.test_case "compiles" `Quick test_compiles;
          Alcotest.test_case "update views materialize" `Quick test_update_views_materialize;
          Alcotest.test_case "query views materialize" `Quick test_query_views_materialize;
          Alcotest.test_case "roundtrip on sample" `Quick test_roundtrip_sample;
          prop_roundtrip;
          prop_store_satisfies_mapping;
          prop_store_conforms;
        ] );
      ( "cells",
        [
          Alcotest.test_case "paper example cells" `Quick test_cells_paper_example;
          Alcotest.test_case "TPH growth and bound" `Quick test_cells_tph_growth;
          Alcotest.test_case "Decimal values between constants" `Quick test_cells_decimal_between;
        ] );
      ( "validation",
        [
          Alcotest.test_case "coverage failure" `Quick test_validation_coverage_failure;
          Alcotest.test_case "foreign-key failure" `Quick test_validation_fk_failure;
          Alcotest.test_case "nullability failure" `Quick test_validation_nullability;
          Alcotest.test_case "types the store cannot tell apart" `Quick
            test_validation_alike_types;
        ] );
      ( "partitioned (Section 3.3)",
        [
          Alcotest.test_case "roundtrip" `Quick test_partitioned_roundtrip;
          Alcotest.test_case "coverage gap" `Quick test_partitioned_coverage_gap;
          Alcotest.test_case "foreign key under an equality" `Quick test_gold_fk;
        ] );
    ]
