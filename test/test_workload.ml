open Common

let test_hub_rim_well_formed () =
  List.iter
    (fun style ->
      let env, frags = Workload.Hub_rim.generate ~n:2 ~m:2 ~style in
      check_ok "client schema" (Edm.Schema.well_formed env.Query.Env.client);
      check_ok "store schema" (Relational.Schema.well_formed env.Query.Env.store);
      check_ok "fragments" (Mapping.Fragments.well_formed env frags))
    [ `Tph; `Tpt ]

let test_hub_rim_counts () =
  check Alcotest.int "types" 12 (Workload.Hub_rim.type_count ~n:3 ~m:3);
  check Alcotest.int "atoms" 21 (Workload.Hub_rim.atom_count ~n:3 ~m:3);
  let env, _ = Workload.Hub_rim.generate ~n:3 ~m:3 ~style:`Tph in
  check Alcotest.int "schema types" 12 (List.length (Edm.Schema.types env.Query.Env.client));
  check Alcotest.int "associations" 9 (List.length (Edm.Schema.associations env.Query.Env.client))

let test_hub_rim_roundtrips () =
  List.iter
    (fun style ->
      let env, frags = Workload.Hub_rim.generate ~n:2 ~m:2 ~style in
      let c = ok_exn (Fullc.Compile.compile env frags) in
      match
        Roundtrip.Check.roundtrips env c.Fullc.Compile.query_views c.Fullc.Compile.update_views
          ~samples:20 ()
      with
      | Ok n -> check Alcotest.int "samples" 20 n
      | Error f -> Alcotest.failf "hub-rim roundtrip: %a" Roundtrip.Check.pp_failure f)
    [ `Tph; `Tpt ]

let test_chain_well_formed () =
  let env, frags = Workload.Chain.generate ~size:10 in
  check_ok "client schema" (Edm.Schema.well_formed env.Query.Env.client);
  check_ok "store schema" (Relational.Schema.well_formed env.Query.Env.store);
  check_ok "fragments" (Mapping.Fragments.well_formed env frags);
  (* 10 chain types + Lone; 9 pairs with 2 associations each. *)
  check Alcotest.int "types" 11 (List.length (Edm.Schema.types env.Query.Env.client));
  check Alcotest.int "associations" 18 (List.length (Edm.Schema.associations env.Query.Env.client))

let chain_state =
  lazy
    (let env, frags = Workload.Chain.generate ~size:10 in
     Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile env frags)))

let test_chain_roundtrips () =
  let st = Lazy.force chain_state in
  match
    Roundtrip.Check.roundtrips st.Core.State.env st.Core.State.query_views
      st.Core.State.update_views ~samples:20 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "chain roundtrip: %a" Roundtrip.Check.pp_failure f

let test_chain_smo_suite () =
  let st = Lazy.force chain_state in
  List.iter
    (fun (label, smo) ->
      match Core.Engine.apply st smo with
      | Ok st' -> (
          match
            Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
              st'.Core.State.update_views ~samples:10 ()
          with
          | Ok _ -> ()
          | Error f -> Alcotest.failf "%s broke roundtripping: %a" label Roundtrip.Check.pp_failure f)
      | Error e ->
          (* The Fig. 6-shaped TPC addition is expected to abort. *)
          if label = "AE-TPC-fk" then ()
          else Alcotest.failf "%s failed: %s" label (show_v e))
    (Workload.Chain.smo_suite ~at:5)

let test_customer_stats () =
  let s = Workload.Customer.stats () in
  checkb "230 types" true (contains ~sub:"230 entity types" s);
  checkb "18 hierarchies" true (contains ~sub:"18 hierarchies" s);
  checkb "largest 95" true (contains ~sub:"largest 95" s);
  checkb "4 levels" true (contains ~sub:"deepest 4" s);
  let env, frags = Workload.Customer.generate () in
  check_ok "client schema" (Edm.Schema.well_formed env.Query.Env.client);
  check_ok "store schema" (Relational.Schema.well_formed env.Query.Env.store);
  check_ok "fragments" (Mapping.Fragments.well_formed env frags)

(* -- roundtrip generator --------------------------------------------------- *)

let test_generate_conforms () =
  List.iter
    (fun seed ->
      let client = pe.Workload.Paper_example.env.Query.Env.client in
      let inst = Roundtrip.Generate.instance ~seed client in
      check_ok "conforms" (Edm.Instance.conforms client inst))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_generate_deterministic () =
  let client = pe.Workload.Paper_example.env.Query.Env.client in
  let a = Roundtrip.Generate.instance ~seed:7 client in
  let b = Roundtrip.Generate.instance ~seed:7 client in
  checkb "same seed, same instance" true (Edm.Instance.equal a b);
  let c = Roundtrip.Generate.instance ~seed:8 client in
  ignore c

let test_check_detects_broken_views () =
  (* Dropping a table's update view must surface as a roundtrip failure. *)
  let env = pe.Workload.Paper_example.env in
  let c = ok_exn (Fullc.Compile.compile env pe.Workload.Paper_example.fragments) in
  let broken = Query.View.remove_table_view "Emp" c.Fullc.Compile.update_views in
  match Roundtrip.Check.roundtrips env c.Fullc.Compile.query_views broken ~samples:30 () with
  | Ok _ -> Alcotest.fail "expected a roundtrip failure"
  | Error f -> checkb "failure reported" true (String.length f.Roundtrip.Check.reason > 0)

(* -- modef ------------------------------------------------------------------ *)

let test_style_detection () =
  let _, _, _, st4 =
    let st1 = ok_exn (Core.State.bootstrap Workload.Paper_example.stage1.Workload.Paper_example.env
                        Workload.Paper_example.stage1.Workload.Paper_example.fragments) in
    (st1, st1, st1, ok_exn (Core.State.bootstrap pe.Workload.Paper_example.env pe.Workload.Paper_example.fragments))
  in
  let detect ty = Modef.Style.detect st4.Core.State.env st4.Core.State.fragments ~etype:ty in
  checkb "Employee is TPT" true (detect "Employee" = Modef.Style.Tpt);
  checkb "Customer is TPC" true (detect "Customer" = Modef.Style.Tpc);
  let tph_env, tph_frags = Workload.Hub_rim.generate ~n:2 ~m:1 ~style:`Tph in
  let st = ok_exn (Core.State.bootstrap tph_env tph_frags) in
  checkb "hub2 is TPH" true
    (Modef.Style.detect st.Core.State.env st.Core.State.fragments ~etype:"Hub2" = Modef.Style.Tph)

let test_diff_infers_additions () =
  (* Start from stage 2 (Person+Employee) and edit the model: a new Manager
     under Employee, a new attribute on Person. *)
  let st =
    ok_exn
      (Core.State.bootstrap Workload.Paper_example.stage2.Workload.Paper_example.env
         Workload.Paper_example.stage2.Workload.Paper_example.fragments)
  in
  let target =
    ok_exn
      (Edm.Schema.add_derived
         (Edm.Entity_type.derived ~name:"Manager" ~parent:"Employee" [ ("Grade", D.Int) ])
         st.Core.State.env.Query.Env.client)
  in
  let target = ok_exn (Edm.Schema.add_attribute ~etype:"Person" ("Phone", D.String) target) in
  let smos = ok_exn (Modef.Diff.infer st ~target) in
  check Alcotest.int "two SMOs" 2 (List.length smos);
  let st' = ok_v (Core.Engine.apply_all st smos) in
  checkb "schema reached the target" true
    (Edm.Schema.equal st'.Core.State.env.Query.Env.client target);
  match
    Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
      st'.Core.State.update_views ~samples:20 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "inferred mapping broke roundtripping: %a" Roundtrip.Check.pp_failure f

let test_diff_infers_drop_and_assoc () =
  let st = ok_exn (Core.State.bootstrap pe.Workload.Paper_example.env pe.Workload.Paper_example.fragments) in
  (* New association mapped through a join table. *)
  let target =
    ok_exn
      (Edm.Schema.add_association
         { Edm.Association.name = "Mentors"; end1 = "Employee"; end2 = "Customer";
           mult1 = Edm.Association.Many; mult2 = Edm.Association.Many }
         st.Core.State.env.Query.Env.client)
  in
  let smos = ok_exn (Modef.Diff.infer st ~target) in
  check Alcotest.int "one SMO" 1 (List.length smos);
  let st' = ok_v (Core.Engine.apply_all st smos) in
  checkb "association added" true
    (Edm.Schema.find_association st'.Core.State.env.Query.Env.client "Mentors" <> None)

let test_diff_infers_facets () =
  let st = ok_exn (Core.State.bootstrap pe.Workload.Paper_example.env pe.Workload.Paper_example.fragments) in
  let client = st.Core.State.env.Query.Env.client in
  (* Supports loosened to many-to-many in the edited model. *)
  let target = ok_exn (Edm.Schema.set_multiplicity ~assoc:"Supports"
                         (Edm.Association.Many, Edm.Association.Many) client) in
  let smos = ok_exn (Modef.Diff.infer st ~target) in
  (match smos with
  | [ smo ] -> check Alcotest.string "multiplicity change inferred" "MULT" (Core.Smo.name smo)
  | l -> Alcotest.failf "expected one SMO, got %d" (List.length l));
  let st' = ok_v (Core.Engine.apply_all st smos) in
  checkb "target reached" true (Edm.Schema.equal st'.Core.State.env.Query.Env.client target)

let test_diff_rejects_unsupported () =
  let st = ok_exn (Core.State.bootstrap pe.Workload.Paper_example.env pe.Workload.Paper_example.fragments) in
  (* Removing an association is inferred as Drop_association. *)
  let target = ok_exn (Edm.Schema.remove_association "Supports" st.Core.State.env.Query.Env.client) in
  let smos = ok_exn (Modef.Diff.infer st ~target) in
  (match smos with
  | [ smo ] -> check Alcotest.string "drop assoc inferred" "DROP-A" (Core.Smo.name smo)
  | l -> Alcotest.failf "expected one SMO, got %d" (List.length l));
  let st' = ok_v (Core.Engine.apply_all st smos) in
  checkb "association gone" true
    (Edm.Schema.find_association st'.Core.State.env.Query.Env.client "Supports" = None);
  (* A brand-new hierarchy root is not expressible. *)
  let target2 =
    ok_exn
      (Edm.Schema.add_root ~set:"Gadgets"
         (Edm.Entity_type.root ~name:"Gadget" ~key:[ "Gid" ] [ ("Gid", D.Int) ])
         st.Core.State.env.Query.Env.client)
  in
  checkb "new root rejected" true (Result.is_error (Modef.Diff.infer st ~target:target2))

let () =
  Alcotest.run "workload"
    [
      ( "hub-rim",
        [
          Alcotest.test_case "well-formed" `Quick test_hub_rim_well_formed;
          Alcotest.test_case "counts" `Quick test_hub_rim_counts;
          Alcotest.test_case "roundtrips" `Quick test_hub_rim_roundtrips;
        ] );
      ( "chain",
        [
          Alcotest.test_case "well-formed" `Quick test_chain_well_formed;
          Alcotest.test_case "roundtrips" `Quick test_chain_roundtrips;
          Alcotest.test_case "SMO suite preserves roundtripping" `Quick test_chain_smo_suite;
        ] );
      ("customer", [ Alcotest.test_case "statistics" `Quick test_customer_stats ]);
      ( "roundtrip harness",
        [
          Alcotest.test_case "generator conforms" `Quick test_generate_conforms;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "detects broken views" `Quick test_check_detects_broken_views;
        ] );
      ( "modef",
        [
          Alcotest.test_case "style detection" `Quick test_style_detection;
          Alcotest.test_case "infers additions" `Quick test_diff_infers_additions;
          Alcotest.test_case "infers associations" `Quick test_diff_infers_drop_and_assoc;
          Alcotest.test_case "infers facet changes" `Quick test_diff_infers_facets;
          Alcotest.test_case "rejects unsupported edits" `Quick test_diff_rejects_unsupported;
        ] );
    ]
