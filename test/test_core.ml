open Common
module P = Workload.Paper_example
module F = Mapping.Fragment
module T = Relational.Table

(* -- the paper's pipeline: Examples 1-7 as SMOs ---------------------------- *)

let employee = Edm.Entity_type.derived ~name:"Employee" ~parent:"Person" [ ("Department", D.String) ]

let customer =
  Edm.Entity_type.derived ~name:"Customer" ~parent:"Person"
    [ ("CredScore", D.Int); ("BillAddr", D.String) ]

let emp_table =
  T.make ~name:"Emp" ~key:[ "Id" ]
    ~fks:[ { T.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
    [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null) ]

let client_table =
  T.make ~name:"Client" ~key:[ "Cid" ]
    ~fks:[ { T.fk_columns = [ "Eid" ]; ref_table = "Emp"; ref_columns = [ "Id" ] } ]
    [ ("Cid", D.Int, `Not_null); ("Eid", D.Int, `Null); ("Name", D.String, `Null);
      ("Score", D.Int, `Null); ("Addr", D.String, `Null) ]

let smo_employee =
  Core.Smo.Add_entity
    { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
      table = emp_table; fmap = [ ("Id", "Id"); ("Department", "Dept") ] }

let customer_tpc table =
  Core.Smo.Add_entity
    { entity = customer; alpha = [ "Id"; "Name"; "CredScore"; "BillAddr" ]; p_ref = None;
      table;
      fmap = [ ("Id", "Cid"); ("Name", "Name"); ("CredScore", "Score"); ("BillAddr", "Addr") ] }

let smo_customer = customer_tpc client_table

let supports_fk fmap =
  Core.Smo.Add_assoc_fk
    { assoc =
        { Edm.Association.name = "Supports"; end1 = "Customer"; end2 = "Employee";
          mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
      table = "Client"; fmap }

let smo_supports = supports_fk [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ]

let paper_states =
  lazy
    (let st1 = ok_exn (Fullc.Compile.compile P.stage1.P.env P.stage1.P.fragments) in
     let st2 = ok_v (Core.Engine.apply st1 smo_employee) in
     let st3 = ok_v (Core.Engine.apply st2 smo_customer) in
     let st4 = ok_v (Core.Engine.apply st3 smo_supports) in
     (st1, st2, st3, st4))

let test_fragments_match_paper () =
  let _, st2, st3, st4 = Lazy.force paper_states in
  checkb "Σ2 after AddEntity Employee" true
    (Mapping.Fragments.equal st2.Core.State.fragments P.stage2.P.fragments);
  checkb "Σ3 after AddEntity Customer" true
    (Mapping.Fragments.equal st3.Core.State.fragments P.stage3.P.fragments);
  (* Σ4's φ4 carries the NOT NULL condition of Example 7. *)
  checkb "Σ4 after AddAssocFK Supports" true
    (Mapping.Fragments.equal st4.Core.State.fragments P.stage4.P.fragments)

let test_schemas_match_paper () =
  let _, _, _, st4 = Lazy.force paper_states in
  checkb "client schema equals stage 4" true
    (Edm.Schema.equal st4.Core.State.env.Query.Env.client P.stage4.P.env.Query.Env.client);
  checkb "store schema equals stage 4" true
    (Relational.Schema.equal st4.Core.State.env.Query.Env.store P.stage4.P.env.Query.Env.store)

let test_sample_roundtrip () =
  let _, _, _, st4 = Lazy.force paper_states in
  checkb "sample roundtrips" true (ok_exn (roundtrip_ok st4 P.sample_client));
  let store =
    ok_exn (Query.View.apply_update_views st4.Core.State.env st4.Core.State.update_views P.sample_client)
  in
  checkb "canonical store state" true (Relational.Instance.equal store P.sample_store)

let prop_incremental_roundtrip =
  qtest "incremental views roundtrip random states" ~count:150 arb_client_instance (fun inst ->
      let _, _, _, st4 = Lazy.force paper_states in
      match roundtrip_ok st4 inst with
      | Ok b -> b
      | Error e -> QCheck.Test.fail_reportf "roundtrip error: %s" e)

let prop_incremental_equals_full =
  qtest "incremental and full views agree on random states" ~count:100 arb_client_instance
    (fun inst ->
      let _, _, _, st4 = Lazy.force paper_states in
      let full = ok_exn (Fullc.Compile.compile st4.Core.State.env st4.Core.State.fragments) in
      let env = st4.Core.State.env in
      let store_inc = ok_exn (Query.View.apply_update_views env st4.Core.State.update_views inst) in
      let store_full =
        ok_exn (Query.View.apply_update_views env full.Core.State.update_views inst)
      in
      Relational.Instance.equal store_inc store_full
      &&
      let client_inc = ok_exn (Query.View.apply_query_views env st4.Core.State.query_views store_inc) in
      let client_full =
        ok_exn (Query.View.apply_query_views env full.Core.State.query_views store_inc)
      in
      Edm.Instance.equal client_inc client_full)

let prop_soundness_restriction =
  (* Section 2.3: on client states where the new components are empty, M and
     M' relate the same store states. *)
  qtest "mapping adaptation is sound" ~count:100 arb_client_instance (fun inst ->
      let _, st2, st3, _ = Lazy.force paper_states in
      let old_inst =
        restrict_new_components ~old_schema:st2.Core.State.env.Query.Env.client inst
      in
      let store =
        ok_exn
          (Query.View.apply_update_views st2.Core.State.env st2.Core.State.update_views old_inst)
      in
      let related_before =
        Mapping.Fragments.related st2.Core.State.env old_inst store st2.Core.State.fragments
      in
      let related_after =
        Mapping.Fragments.related st3.Core.State.env old_inst store st3.Core.State.fragments
      in
      related_before && related_after)

(* -- validation behaviour --------------------------------------------------- *)

let test_fig6_violation_aborts () =
  (* Fig. 6: E' with an association stored FK-style; adding E TPC makes the
     foreign key β -> γ dangle for E entities, so AddEntity must abort. *)
  let _, _, _, st4 = Lazy.force paper_states in
  (* VIP inherits from Customer and is mapped TPC to its own table; Customers
     participate in Supports, whose rows live in Client with Cid -> ... the
     Client table key.  A VIP participating in Supports would store its key
     in Client.Cid but nowhere Customer data lives... Construct directly: *)
  let vip =
    Edm.Entity_type.derived ~name:"Vip" ~parent:"Customer" [ ("Tier", D.String) ]
  in
  let vip_table =
    T.make ~name:"VipT" ~key:[ "Vid" ]
      [ ("Vid", D.Int, `Not_null); ("VName", D.String, `Null); ("VScore", D.Int, `Null);
        ("VAddr", D.String, `Null); ("Tier", D.String, `Null) ]
  in
  let smo =
    Core.Smo.Add_entity
      { entity = vip; alpha = [ "Id"; "Name"; "CredScore"; "BillAddr"; "Tier" ]; p_ref = None;
        table = vip_table;
        fmap =
          [ ("Id", "Vid"); ("Name", "VName"); ("CredScore", "VScore"); ("BillAddr", "VAddr");
            ("Tier", "Tier") ] }
  in
  (match Core.Engine.apply st4 smo with
  | Ok _ -> Alcotest.fail "expected the Fig. 6 scenario to abort"
  | Error e -> checkb "mentions the association or table" true (String.length (show_v e) > 0));
  let aep =
    Core.Smo.Add_entity_part
      { entity = vip; p_ref = None;
        parts =
          [ { Core.Add_entity_part.part_alpha = [ "Id"; "Name"; "CredScore"; "BillAddr"; "Tier" ];
              part_cond = C.True; part_table = vip_table;
              part_fmap =
                [ ("Id", "Vid"); ("Name", "VName"); ("CredScore", "VScore"); ("BillAddr", "VAddr");
                  ("Tier", "Tier") ] } ] }
  in
  (match Core.Engine.apply st4 aep with
  | Ok _ -> Alcotest.fail "expected the Fig. 6 scenario to abort for AEP"
  | Error e -> checkb "AEP names the association" true (contains ~sub:"Supports" (show_v e)));
  (* The TPT variant of the same addition keeps VIP keys in Client and must
     succeed. *)
  let vip_tpt =
    T.make ~name:"VipT2" ~key:[ "Vid" ] [ ("Vid", D.Int, `Not_null); ("Tier", D.String, `Null) ]
  in
  let smo_ok =
    Core.Smo.Add_entity
      { entity = vip; alpha = [ "Id"; "Tier" ]; p_ref = Some "Customer"; table = vip_tpt;
        fmap = [ ("Id", "Vid"); ("Tier", "Tier") ] }
  in
  checkb "TPT variant validates" true (Result.is_ok (Core.Engine.apply st4 smo_ok))

(* Two roots, Acct and Bank, and the association Holds between them. *)
let accts_client () =
  ok_exn
    (Edm.Schema.add_root ~set:"Accts"
       (Edm.Entity_type.root ~name:"Acct" ~key:[ "Id" ] [ ("Id", D.Int); ("Name", D.String) ])
       Edm.Schema.empty)
  |> Edm.Schema.add_root ~set:"Banks"
       (Edm.Entity_type.root ~name:"Bank" ~key:[ "Id" ] [ ("Id", D.Int) ])
  |> ok_exn
  |> Edm.Schema.add_association
       { Edm.Association.name = "Holds"; end1 = "Acct"; end2 = "Bank";
         mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one }
  |> ok_exn

(* A new subtype [Vip] of [Acct]: added TPC, as one partition with P = NIL,
   and TPT. *)
let vip_smos () =
  let vip = Edm.Entity_type.derived ~name:"Vip" ~parent:"Acct" [ ("Tier", D.String) ] in
  let vip_table =
    T.make ~name:"TVip" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null); ("Tier", D.String, `Null) ]
  in
  let cols = [ ("Id", "Id"); ("Name", "Name"); ("Tier", "Tier") ] in
  let tpc =
    Core.Smo.Add_entity
      { entity = vip; alpha = List.map fst cols; p_ref = None; table = vip_table; fmap = cols }
  in
  let aep =
    Core.Smo.Add_entity_part
      { entity = vip; p_ref = None;
        parts =
          [ { Core.Add_entity_part.part_alpha = List.map fst cols; part_cond = C.True;
              part_table = vip_table; part_fmap = cols } ] }
  in
  let tpt =
    Core.Smo.Add_entity
      { entity = vip; alpha = [ "Id"; "Tier" ]; p_ref = Some "Acct";
        table = T.make ~name:"TVip" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Tier", D.String, `Null) ];
        fmap = [ ("Id", "Id"); ("Tier", "Tier") ] }
  in
  ([ ("AE-TPC", tpc); ("AEP with P = NIL", aep) ], tpt)

let expect_aborts st ~sub smos =
  List.iter
    (fun (label, smo) ->
      match Core.Engine.apply st smo with
      | Ok _ -> Alcotest.failf "%s: expected the SMO to abort" label
      | Error e -> checkb (label ^ " names " ^ sub) true (contains ~sub (show_v e)))
    smos

(* Fig. 6 with the association stored in the endpoint's own table: Holds
   rows live in TAcct next to the Acct entities, keyed by the account id.  A
   new subtype stored apart from TAcct (TPC, or partitions with P = NIL)
   would leave a TAcct row for each of its Holds links that no entity
   accounts for.  Checks 1–3 pass, since the update view of TAcct already
   holds every Holds row; the SMO must still abort. *)
let test_fig6_in_table_assoc_aborts () =
  let client = accts_client () in
  let store =
    List.fold_left
      (fun s t -> ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [ T.make ~name:"TBank" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ];
        T.make ~name:"TAcct" ~key:[ "Id" ]
          ~fks:[ { T.fk_columns = [ "BankId" ]; ref_table = "TBank"; ref_columns = [ "Id" ] } ]
          [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null); ("BankId", D.Int, `Null) ] ]
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Accts" ~cond:(C.Is_of "Acct") ~table:"TAcct" [ ("Id", "Id"); ("Name", "Name") ];
        F.entity ~set:"Banks" ~cond:(C.Is_of "Bank") ~table:"TBank" [ ("Id", "Id") ];
        F.assoc ~assoc:"Holds" ~table:"TAcct" ~store_cond:(C.Is_not_null "BankId")
          [ ("Acct.Id", "Id"); ("Bank.Id", "BankId") ] ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  let aborting, tpt = vip_smos () in
  expect_aborts st ~sub:"Holds" aborting;
  checkb "TPT variant validates" true (Result.is_ok (Core.Engine.apply st tpt))

(* Fig. 6 with the association in a join table whose foreign key references
   the endpoint's table: check 1 passes, since the join table's update view
   holds every Holds row, but a Vip stored apart from TAcct leaves its Holds
   rows pointing at no TAcct row.  Check 2 (the join table's foreign key)
   must abort AddEntity and AddEntityPart alike. *)
let test_fig6_join_table_assoc_aborts () =
  let client = accts_client () in
  let store =
    List.fold_left
      (fun s t -> ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [ T.make ~name:"TBank" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ];
        T.make ~name:"TAcct" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null) ];
        T.make ~name:"THolds" ~key:[ "AcctId" ]
          ~fks:
            [ { T.fk_columns = [ "AcctId" ]; ref_table = "TAcct"; ref_columns = [ "Id" ] };
              { T.fk_columns = [ "BankId" ]; ref_table = "TBank"; ref_columns = [ "Id" ] } ]
          [ ("AcctId", D.Int, `Not_null); ("BankId", D.Int, `Not_null) ] ]
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Accts" ~cond:(C.Is_of "Acct") ~table:"TAcct" [ ("Id", "Id"); ("Name", "Name") ];
        F.entity ~set:"Banks" ~cond:(C.Is_of "Bank") ~table:"TBank" [ ("Id", "Id") ];
        F.assoc ~assoc:"Holds" ~table:"THolds" [ ("Acct.Id", "AcctId"); ("Bank.Id", "BankId") ] ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  let aborting, tpt = vip_smos () in
  expect_aborts st ~sub:"THolds(AcctId) -> TAcct" aborting;
  checkb "TPT variant validates" true (Result.is_ok (Core.Engine.apply st tpt))

let test_precondition_failures () =
  let st1, _, _, _ = Lazy.force paper_states in
  let bad_alpha =
    Core.Smo.Add_entity
      { entity = employee; alpha = [ "Id" ]; p_ref = None; table = emp_table;
        fmap = [ ("Id", "Id") ] }
  in
  (match Core.Engine.apply st1 bad_alpha with
  | Ok _ -> Alcotest.fail "TPC with partial α accepted"
  | Error e ->
      checkb "TPC with partial α rejected" true
        (contains ~sub:"attribute Name of Employee is stored by no partition" (show_v e)));
  let bad_key =
    Core.Smo.Add_entity
      { entity = employee; alpha = [ "Department" ]; p_ref = Some "Person"; table = emp_table;
        fmap = [ ("Department", "Dept") ] }
  in
  checkb "α without key rejected" true (Result.is_error (Core.Engine.apply st1 bad_key));
  let bad_domain_table =
    T.make ~name:"EmpS" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Dept", D.Int, `Null) ]
  in
  let bad_domain =
    Core.Smo.Add_entity
      { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
        table = bad_domain_table; fmap = [ ("Id", "Id"); ("Department", "Dept") ] }
  in
  checkb "domain mismatch rejected" true (Result.is_error (Core.Engine.apply st1 bad_domain));
  let non_null_extra =
    T.make ~name:"EmpN" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null); ("Extra", D.Int, `Not_null) ]
  in
  let bad_nullable =
    Core.Smo.Add_entity
      { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
        table = non_null_extra; fmap = [ ("Id", "Id"); ("Department", "Dept") ] }
  in
  checkb "non-nullable unmapped column rejected" true
    (Result.is_error (Core.Engine.apply st1 bad_nullable));
  let used_table_smo =
    Core.Smo.Add_entity
      { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
        table =
          T.make ~name:"HR" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null) ];
        fmap = [ ("Id", "Id"); ("Department", "Name") ] }
  in
  checkb "table already in the mapping rejected" true
    (Result.is_error (Core.Engine.apply st1 used_table_smo))

let test_assoc_fk_check1 () =
  (* Re-adding an association over already-used columns must fail check 1. *)
  let _, _, _, st4 = Lazy.force paper_states in
  let dup =
    Core.Smo.Add_assoc_fk
      { assoc =
          { Edm.Association.name = "Supports2"; end1 = "Customer"; end2 = "Employee";
            mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
        table = "Client";
        fmap = [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] }
  in
  match Core.Engine.apply st4 dup with
  | Ok _ -> Alcotest.fail "expected check 1 to fail"
  | Error e -> checkb "mentions the used column" true (contains ~sub:"Eid" (show_v e))

(* -- TPH ------------------------------------------------------------------- *)

let tph_base =
  lazy
    (let client =
       ok_exn
         (Edm.Schema.add_root ~set:"Items"
            (Edm.Entity_type.root ~name:"Item" ~key:[ "Id" ]
               [ ("Id", D.Int); ("Label", D.String) ])
            Edm.Schema.empty)
     in
     let store =
       ok_exn
         (Relational.Schema.add_table
            (T.make ~name:"Inventory" ~key:[ "Id" ]
               [ ("Id", D.Int, `Not_null); ("Label", D.String, `Null); ("Disc", D.String, `Null);
                 ("Pages", D.Int, `Null); ("Rpm", D.Int, `Null) ])
            Relational.Schema.empty)
     in
     let frags =
       Mapping.Fragments.of_list
         [ F.entity ~set:"Items" ~cond:(C.Is_of "Item") ~table:"Inventory"
             ~store_cond:(C.Cmp ("Disc", C.Eq, V.String "item"))
             [ ("Id", "Id"); ("Label", "Label") ] ]
     in
     ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags))

let smo_book =
  Core.Smo.Add_entity_tph
    { entity = Edm.Entity_type.derived ~name:"Book" ~parent:"Item" [ ("Pages", D.Int) ];
      table = "Inventory";
      fmap = [ ("Id", "Id"); ("Label", "Label"); ("Pages", "Pages") ];
      discriminator = ("Disc", V.String "book") }

let smo_disc =
  Core.Smo.Add_entity_tph
    { entity = Edm.Entity_type.derived ~name:"Record" ~parent:"Item" [ ("Rpm", D.Int) ];
      table = "Inventory";
      fmap = [ ("Id", "Id"); ("Label", "Label"); ("Rpm", "Rpm") ];
      discriminator = ("Disc", V.String "record") }

let test_tph_add () =
  let st = Lazy.force tph_base in
  let st = ok_v (Core.Engine.apply st smo_book) in
  let st = ok_v (Core.Engine.apply st smo_disc) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Items"
         (Edm.Instance.entity ~etype:"Item" [ ("Id", V.Int 1); ("Label", V.String "thing") ])
    |> Edm.Instance.add_entity ~set:"Items"
         (Edm.Instance.entity ~etype:"Book"
            [ ("Id", V.Int 2); ("Label", V.String "ocaml"); ("Pages", V.Int 200) ])
    |> Edm.Instance.add_entity ~set:"Items"
         (Edm.Instance.entity ~etype:"Record"
            [ ("Id", V.Int 3); ("Label", V.String "lp"); ("Rpm", V.Int 33) ])
  in
  checkb "TPH roundtrips" true (ok_exn (roundtrip_ok st inst));
  let store = ok_exn (Query.View.apply_update_views st.Core.State.env st.Core.State.update_views inst) in
  let discs =
    List.map (fun r -> Datum.Row.get "Disc" r) (Relational.Instance.rows store ~table:"Inventory")
    |> List.sort_uniq V.compare
  in
  check Alcotest.int "three discriminator values" 3 (List.length discs)

let test_tph_discriminator_clash () =
  let st = Lazy.force tph_base in
  let st = ok_v (Core.Engine.apply st smo_book) in
  let clash =
    Core.Smo.Add_entity_tph
      { entity = Edm.Entity_type.derived ~name:"Record" ~parent:"Item" [ ("Rpm", D.Int) ];
        table = "Inventory";
        fmap = [ ("Id", "Id"); ("Label", "Label"); ("Rpm", "Rpm") ];
        discriminator = ("Disc", V.String "book") }
  in
  match Core.Engine.apply st clash with
  | Ok _ -> Alcotest.fail "expected discriminator overlap to abort"
  | Error e ->
      checkb "mentions the discriminator" true (contains ~sub:"book" (show_v e));
      (* The overlap tests lead AE-TPH's one batch, so the clash is what it
         reports. *)
      (* Both strings are suspended until the proof fails, and read as
         eagerly printed ones did. *)
      let fragment =
        "π[Id, Label, Pages](σ[IS OF Book](Items)) = π[Id, Label, Pages]\n\
        \                                              (σ[Disc = 'book'](Inventory))"
      in
      check Alcotest.(option string) "names the overlap obligation"
        (Some ("ae-tph.overlap:" ^ fragment))
        e.Containment.Validation_error.obligation;
      check Alcotest.string "overlap message"
        ("discriminator Disc = (String \"book\") overlaps the region of fragment " ^ fragment)
        e.Containment.Validation_error.message

(* -- AddEntityPart ----------------------------------------------------------- *)

let part_base =
  lazy
    (let client =
       ok_exn
         (Edm.Schema.add_root ~set:"People"
            (Edm.Entity_type.root ~name:"Human" ~key:[ "Hid" ] [ ("Hid", D.Int) ])
            Edm.Schema.empty)
     in
     let store =
       ok_exn
         (Relational.Schema.add_table
            (T.make ~name:"Humans" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ])
            Relational.Schema.empty)
     in
     let frags =
       Mapping.Fragments.of_list
         [ F.entity ~set:"People" ~cond:(C.Is_of "Human") ~table:"Humans" [ ("Hid", "Hid") ] ]
     in
     ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags))

let person_part ~cond1 ~cond2 =
  Core.Smo.Add_entity_part
    { entity =
        Edm.Entity_type.derived ~name:"Citizen" ~parent:"Human" ~non_null:[ "Age" ]
          [ ("Age", D.Int) ];
      p_ref = Some "Human";
      parts =
        [ { Core.Add_entity_part.part_alpha = [ "Hid"; "Age" ]; part_cond = cond1;
            part_table = T.make ~name:"Adult" ~key:[ "Hid" ]
                [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ];
            part_fmap = [ ("Hid", "Hid"); ("Age", "Age") ] };
          { Core.Add_entity_part.part_alpha = [ "Hid"; "Age" ]; part_cond = cond2;
            part_table = T.make ~name:"Young" ~key:[ "Hid" ]
                [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ];
            part_fmap = [ ("Hid", "Hid"); ("Age", "Age") ] } ] }

let test_part_roundtrip () =
  let st = Lazy.force part_base in
  let st =
    ok_v
      (Core.Engine.apply st
         (person_part ~cond1:(C.Cmp ("Age", C.Ge, V.Int 18)) ~cond2:(C.Cmp ("Age", C.Lt, V.Int 18))))
  in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Human" [ ("Hid", V.Int 1) ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Citizen" [ ("Hid", V.Int 2); ("Age", V.Int 30) ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Citizen" [ ("Hid", V.Int 3); ("Age", V.Int 12) ])
  in
  checkb "partitioned roundtrip" true (ok_exn (roundtrip_ok st inst));
  let store = ok_exn (Query.View.apply_update_views st.Core.State.env st.Core.State.update_views inst) in
  check Alcotest.int "adult row" 1 (List.length (Relational.Instance.rows store ~table:"Adult"));
  check Alcotest.int "young row" 1 (List.length (Relational.Instance.rows store ~table:"Young"))

let test_part_coverage_gap () =
  let st = Lazy.force part_base in
  match
    Core.Engine.apply st
      (person_part ~cond1:(C.Cmp ("Age", C.Ge, V.Int 18)) ~cond2:(C.Cmp ("Age", C.Lt, V.Int 10)))
  with
  | Ok _ -> Alcotest.fail "expected tautology check to fail"
  | Error e -> checkb "mentions tautology/coverage" true (contains ~sub:"tautology" (show_v e))

(* A Vip below the root Acct (in TAcct) with a non-null Decimal W, split
   into one partition table per [(name, condition)] of [parts]. *)
let vip_split parts =
  let env, frags = acct_model () in
  let st = ok_exn (Fullc.Compile.compile env frags) in
  let part name cond =
    { Core.Add_entity_part.part_alpha = [ "Id"; "W" ]; part_cond = cond;
      part_table =
        T.make ~name ~key:[ "Id" ]
          ~fks:[ { T.fk_columns = [ "Id" ]; ref_table = "TAcct"; ref_columns = [ "Id" ] } ]
          [ ("Id", D.Int, `Not_null); ("W", D.Decimal, `Null) ];
      part_fmap = [ ("Id", "Id"); ("W", "W") ] }
  in
  let smo =
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:"Vip" ~parent:"Acct" ~non_null:[ "W" ] [ ("W", D.Decimal) ];
        p_ref = Some "Acct";
        parts = List.map (fun (name, cond) -> part name cond) parts }
  in
  Core.Engine.apply st smo

(* W <= 1.0 to TLow and W >= 1.2 to THigh store no W strictly between 1.0
   and 1.2; W > 1 (an Int) alone stores no W that is an Int up to 1, which
   a Decimal attribute may hold. *)
let test_part_decimal_gap () =
  let w op v = C.Cmp ("W", op, v) in
  let refused tag parts =
    match vip_split parts with
    | Ok _ -> Alcotest.failf "%s accepted" tag
    | Error e ->
        checkb (tag ^ ": the refusal names W") true
          (contains ~sub:"attribute W of Vip" (show_v e))
  in
  refused "W <= 1.0 / W >= 1.2"
    [ ("TLow", w C.Le (V.Decimal 1.0)); ("THigh", w C.Ge (V.Decimal 1.2)) ];
  refused "W > 1" [ ("THigh", w C.Gt (V.Int 1)) ];
  let st =
    ok_v (vip_split [ ("TLow", w C.Le (V.Decimal 1.0)); ("THigh", w C.Gt (V.Decimal 1.0)) ])
  in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Accts" (Edm.Instance.entity ~etype:"Acct" [ ("Id", V.Int 1) ])
    |> Edm.Instance.add_entity ~set:"Accts"
         (Edm.Instance.entity ~etype:"Vip" [ ("Id", V.Int 2); ("W", V.Decimal 1.1) ])
    |> Edm.Instance.add_entity ~set:"Accts"
         (Edm.Instance.entity ~etype:"Vip" [ ("Id", V.Int 3); ("W", V.Int 0) ])
  in
  checkb "Vips at W = 1.1 and at the Int 0 roundtrip" true (ok_exn (roundtrip_ok st inst))

(* TGoldX's foreign key into TGold is proven by a containment whose
   superset side holds the equality Tier = "gold". *)
let test_part_gold () =
  let env, frags = acct_model () in
  let st = ok_exn (Fullc.Compile.compile env frags) in
  let smo = Core.Smo.Add_entity_part { entity = gold_vip; p_ref = Some "Acct"; parts = gold_parts } in
  let st = ok_v (Core.Engine.apply st smo) in
  let entity etype id attrs = Edm.Instance.entity ~etype (("Id", V.Int id) :: attrs) in
  let inst =
    List.fold_left
      (fun inst e -> Edm.Instance.add_entity ~set:"Accts" e inst)
      Edm.Instance.empty
      [ entity "Acct" 1 []; entity "Vip" 2 [ ("Tier", V.String "gold") ];
        entity "Vip" 3 [ ("Tier", V.String "silver") ] ]
  in
  checkb "gold and other Vips roundtrip" true (ok_exn (roundtrip_ok st inst))

let test_part_gender_example () =
  (* Section 3.3's gender example: ids split by a closed-domain attribute that
     is itself only stored through the A = c consequences. *)
  let gender = D.Enum [ "M"; "F" ] in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"People"
         (Edm.Entity_type.root ~name:"Human" ~key:[ "Hid" ] [ ("Hid", D.Int) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (T.make ~name:"Humans" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ])
         Relational.Schema.empty)
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"People" ~cond:(C.Is_of "Human") ~table:"Humans" [ ("Hid", "Hid") ] ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  let smo =
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:"Person2" ~parent:"Human"
            ~non_null:[ "Gender"; "PName" ]
            [ ("PName", D.String); ("Gender", gender) ];
        p_ref = Some "Human";
        parts =
          [ { Core.Add_entity_part.part_alpha = [ "Hid" ];
              part_cond = C.Cmp ("Gender", C.Eq, V.String "M");
              part_table = T.make ~name:"Men" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ];
              part_fmap = [ ("Hid", "Hid") ] };
            { Core.Add_entity_part.part_alpha = [ "Hid" ];
              part_cond = C.Cmp ("Gender", C.Eq, V.String "F");
              part_table = T.make ~name:"Women" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ];
              part_fmap = [ ("Hid", "Hid") ] };
            { Core.Add_entity_part.part_alpha = [ "Hid"; "PName" ]; part_cond = C.True;
              part_table = T.make ~name:"Names" ~key:[ "Hid" ]
                  [ ("Hid", D.Int, `Not_null); ("PName", D.String, `Null) ];
              part_fmap = [ ("Hid", "Hid"); ("PName", "PName") ] } ] }
  in
  let st = ok_v (Core.Engine.apply st smo) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Person2"
            [ ("Hid", V.Int 1); ("PName", V.String "ana"); ("Gender", V.String "F") ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Person2"
            [ ("Hid", V.Int 2); ("PName", V.String "bob"); ("Gender", V.String "M") ])
  in
  checkb "gender mapping roundtrips (constants re-materialized)" true
    (ok_exn (roundtrip_ok st inst))

(* -- AddProperty -------------------------------------------------------------- *)

let test_add_property_existing () =
  let _, _, _, st4 = Lazy.force paper_states in
  let smo =
    Core.Smo.Add_property
      { etype = "Employee"; attr = ("Level", D.Int);
        target = Core.Add_property.To_existing_table { table = "Emp"; column = "Level" } }
  in
  let st = ok_v (Core.Engine.apply st4 smo) in
  checkb "column added to the store" true
    (Relational.Table.mem_column
       (Relational.Schema.get_table st.Core.State.env.Query.Env.store "Emp")
       "Level");
  let inst =
    Edm.Instance.add_entity ~set:"Persons"
      (Edm.Instance.entity ~etype:"Employee"
         [ ("Id", V.Int 9); ("Name", V.String "zoe"); ("Department", V.String "R&D");
           ("Level", V.Int 4) ])
      Edm.Instance.empty
  in
  checkb "roundtrips with the new property" true (ok_exn (roundtrip_ok st inst))

let test_add_property_new_table () =
  let _, _, _, st4 = Lazy.force paper_states in
  let smo =
    Core.Smo.Add_property
      { etype = "Person"; attr = ("Nick", D.String);
        target =
          Core.Add_property.To_new_table
            { table =
                T.make ~name:"Nicks" ~key:[ "Id" ]
                  [ ("Id", D.Int, `Not_null); ("Nick", D.String, `Null) ];
              fmap = [ ("Id", "Id"); ("Nick", "Nick") ] } }
  in
  let st = ok_v (Core.Engine.apply st4 smo) in
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Person"
            [ ("Id", V.Int 1); ("Name", V.String "ana"); ("Nick", V.String "an") ])
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Employee"
            [ ("Id", V.Int 2); ("Name", V.String "bob"); ("Department", V.String "HR");
              ("Nick", V.Null) ])
  in
  checkb "descendants inherit the property" true (ok_exn (roundtrip_ok st inst))

(* AE-TPT with one attribute, then DropProperty of that attribute: the
   fragment left with only the key still tells employees from persons. *)
let test_drop_tpt_only_attribute () =
  let _, st2, _, _ = Lazy.force paper_states in
  let smo = Core.Smo.Drop_property { etype = "Employee"; attr = "Department" } in
  let st = ok_v (Core.Engine.apply st2 smo) in
  Recompile.check "drop Employee.Department" st2 smo st;
  checkb "Emp keeps a fragment" true
    (List.mem "Emp" (Mapping.Fragments.tables st.Core.State.fragments));
  (match
     Roundtrip.Check.roundtrips st.Core.State.env st.Core.State.query_views
       st.Core.State.update_views ~samples:5 ~base_seed:7 ()
   with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "roundtrip: %a" Roundtrip.Check.pp_failure f);
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "ana") ])
    |> Edm.Instance.add_entity ~set:"Persons"
         (Edm.Instance.entity ~etype:"Employee" [ ("Id", V.Int 2); ("Name", V.String "bob") ])
  in
  checkb "an employee reads back as an employee" true (ok_exn (roundtrip_ok st inst))

(* -- the column-map rules of the additive SMOs ------------------------------------ *)

(* One builder per additive SMO; each default is accepted (see the controls
   below), so a row that changes one argument breaks exactly one rule. *)
let col ?(null = `Null) name dom = (name, dom, null)

let cm_ae ?(fmap = [ ("Id", "Id"); ("Department", "Dept") ]) table =
  Core.Smo.Add_entity
    { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person"; table; fmap }

let cm_emp ?(name = "EmpX") ?(key = [ "Id" ]) ?(extra = []) ?(dept = D.String) () =
  T.make ~name ~key ([ col ~null:`Not_null "Id" D.Int; col "Dept" dept ] @ extra)

let cm_aep ?(alpha = [ "Hid"; "Age" ]) ?(fmap = [ ("Hid", "Hid"); ("Age", "Age") ])
    ?(cond = C.True) table =
  Core.Smo.Add_entity_part
    { entity =
        Edm.Entity_type.derived ~name:"Citizen" ~parent:"Human" ~non_null:[ "Age" ]
          [ ("Age", D.Int) ];
      p_ref = Some "Human";
      parts =
        [ { Core.Add_entity_part.part_alpha = alpha; part_cond = cond; part_table = table;
            part_fmap = fmap } ] }

let cm_citizens ?(name = "Citizens") ?(key = [ "Hid" ]) ?(extra = []) ?(age = D.Int) () =
  T.make ~name ~key ([ col ~null:`Not_null "Hid" D.Int; col ~null:`Not_null "Age" age ] @ extra)

let cm_tph fmap =
  Core.Smo.Add_entity_tph
    { entity = Edm.Entity_type.derived ~name:"Book" ~parent:"Item" [ ("Pages", D.Int) ];
      table = "Inventory"; fmap; discriminator = ("Disc", V.String "book") }

let mentors mult2 =
  { Edm.Association.name = "Mentors"; end1 = "Employee"; end2 = "Customer";
    mult1 = Edm.Association.Many; mult2 }

let cm_jt ?(assoc = mentors Edm.Association.Many)
    ?(fmap = [ ("Employee.Id", "Eid"); ("Customer.Id", "Cid") ]) table =
  Core.Smo.Add_assoc_jt { assoc; table; fmap }

let cm_mentors ?(name = "MentorsT") ?(key = [ "Eid"; "Cid" ]) ?(extra = []) ?(dom = D.Int) () =
  T.make ~name ~key ([ col ~null:`Not_null "Eid" dom; col ~null:`Not_null "Cid" dom ] @ extra)

let cm_ap ?(dom = D.Int) ?(fmap = [ ("Id", "Id"); ("Level", "Lvl") ]) table =
  Core.Smo.Add_property
    { etype = "Employee"; attr = ("Level", dom);
      target = Core.Add_property.To_new_table { table; fmap } }

let cm_emplvl ?(name = "EmpLvl") ?(key = [ "Id" ]) ?(extra = []) ?(id = D.Int) ?(lvl = D.Int) () =
  T.make ~name ~key ([ col ~null:`Not_null "Id" id; col "Lvl" lvl ] @ extra)

(* Paper stage 3 with a string-typed Client.Eid, the target of the AA-FK
   domain row. *)
let string_eid_state =
  lazy
    (let _, st2, _, _ = Lazy.force paper_states in
     let table =
       T.make ~name:"Client" ~key:[ "Cid" ]
         [ col ~null:`Not_null "Cid" D.Int; col "Eid" D.String; col "Name" D.String;
           col "Score" D.Int; col "Addr" D.String ]
     in
     ok_v (Core.Engine.apply st2 (customer_tpc table)))

let test_column_map_controls () =
  let st1, _, st3, st4 = Lazy.force paper_states in
  List.iter
    (fun (label, st, smo) ->
      match Core.Engine.apply st smo with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: unexpected rejection: %s" label (show_v e))
    [ ("AE", st1, cm_ae (cm_emp ()));
      ("AEP", Lazy.force part_base, cm_aep (cm_citizens ()));
      ("TPH", Lazy.force tph_base, cm_tph [ ("Id", "Id"); ("Label", "Label"); ("Pages", "Pages") ]);
      ("AA-FK", st3, smo_supports);
      ("AA-JT", st4, cm_jt (cm_mentors ()));
      ("AP", st4, cm_ap (cm_emplvl ())) ]

(* Each additive SMO against each column-map rule that applies to it: the SMO
   is rejected with a message containing the needle — the offending
   attribute, column or table, or the rule's own words where the rule names
   no single culprit (a missing or repeated map entry). *)
let test_column_map_rejections () =
  let st1, _, st3, st4 = Lazy.force paper_states in
  let aep = Lazy.force part_base and tph = Lazy.force tph_base in
  let nonnull_extra = [ col ~null:`Not_null "Extra" D.Int ] in
  let stored (st : Core.State.t) = Relational.Schema.get_table st.Core.State.env.Query.Env.store in
  let rows =
    [ ("AE exact", st1, cm_ae ~fmap:[ ("Id", "Id") ] (cm_emp ()), "must map");
      ("AE one-to-one", st1, cm_ae ~fmap:[ ("Id", "Id"); ("Department", "Id") ] (cm_emp ()),
       "one-to-one");
      ("AE unknown column", st1, cm_ae ~fmap:[ ("Id", "Id"); ("Department", "Zz") ] (cm_emp ()),
       "Zz");
      ("AE key image", st1,
       cm_ae (T.make ~name:"EmpK" ~key:[ "Dept" ]
                [ col "Id" D.Int; col ~null:`Not_null "Dept" D.String ]),
       "EmpK");
      ("AE domain", st1, cm_ae (cm_emp ~dept:D.Int ()), "dom(Department)");
      ("AE nullable", st1, cm_ae (cm_emp ~extra:nonnull_extra ()), "Extra");
      ("AE table differs", st1, cm_ae (cm_emp ~name:"HR" ()), "HR");
      ("AE table mentioned", st1, cm_ae ~fmap:[ ("Id", "Id"); ("Department", "Name") ] (stored st1 "HR"),
       "HR");
      ("AEP exact", aep, cm_aep ~fmap:[ ("Hid", "Hid") ] (cm_citizens ()), "must map");
      ("AEP one-to-one", aep, cm_aep ~fmap:[ ("Hid", "Hid"); ("Age", "Hid") ] (cm_citizens ()),
       "one-to-one");
      ("AEP unknown column", aep, cm_aep ~fmap:[ ("Hid", "Hid"); ("Age", "Zz") ] (cm_citizens ()),
       "Zz");
      ("AEP key image", aep, cm_aep (cm_citizens ~name:"CitK" ~key:[ "Age" ] ()), "CitK");
      ("AEP domain", aep, cm_aep (cm_citizens ~age:D.String ()), "dom(Age)");
      ("AEP nullable", aep, cm_aep (cm_citizens ~extra:nonnull_extra ()), "Extra");
      ("AEP table differs", aep, cm_aep (cm_citizens ~name:"Humans" ()), "Humans");
      ("AEP table mentioned", aep,
       cm_aep ~alpha:[ "Hid" ] ~fmap:[ ("Hid", "Hid") ] (stored aep "Humans"),
       "Humans");
      ("AEP ψ attribute", aep,
       cm_aep ~cond:(C.Cmp ("Height", C.Ge, V.Int 1)) (cm_citizens ()), "Height");
      ("AEP ψ domain", aep, cm_aep ~cond:(C.Cmp ("Age", C.Ge, V.String "a")) (cm_citizens ()),
       "'a'");
      ("AEP ψ domain (negated)", aep,
       cm_aep ~cond:(C.Cmp ("Age", C.Lt, V.String "a")) (cm_citizens ()), "dom(Age)");
      ("TPH exact", tph, cm_tph [ ("Id", "Id"); ("Label", "Label") ], "must map");
      ("TPH one-to-one", tph, cm_tph [ ("Id", "Id"); ("Label", "Label"); ("Pages", "Label") ],
       "one-to-one");
      ("TPH unknown column", tph, cm_tph [ ("Id", "Id"); ("Label", "Label"); ("Pages", "Zz") ],
       "Zz");
      ("TPH key image", tph, cm_tph [ ("Id", "Rpm"); ("Label", "Label"); ("Pages", "Pages") ],
       "Inventory");
      ("TPH domain", tph, cm_tph [ ("Id", "Id"); ("Label", "Rpm"); ("Pages", "Pages") ],
       "dom(Label)");
      ("AA-FK exact", st3, supports_fk [ ("Customer.Id", "Cid") ], "must map");
      ("AA-FK one-to-one", st3, supports_fk [ ("Customer.Id", "Cid"); ("Employee.Id", "Cid") ],
       "one-to-one");
      ("AA-FK unknown column", st3, supports_fk [ ("Customer.Id", "Cid"); ("Employee.Id", "Zz") ],
       "Zz");
      ("AA-FK key image", st3, supports_fk [ ("Customer.Id", "Eid"); ("Employee.Id", "Cid") ],
       "Client");
      ("AA-FK domain", Lazy.force string_eid_state, smo_supports, "dom(Employee.Id)");
      ("AA-JT exact", st4, cm_jt ~fmap:[ ("Employee.Id", "Eid") ] (cm_mentors ()), "must map");
      ("AA-JT one-to-one", st4,
       cm_jt ~fmap:[ ("Employee.Id", "Eid"); ("Customer.Id", "Eid") ] (cm_mentors ()),
       "one-to-one");
      ("AA-JT unknown column", st4,
       cm_jt ~fmap:[ ("Employee.Id", "Eid"); ("Customer.Id", "Zz") ] (cm_mentors ()), "Zz");
      ("AA-JT key image", st4, cm_jt (cm_mentors ~name:"MentorsK" ~key:[ "Eid" ] ()),
       "MentorsK");
      ("AA-JT domain", st4, cm_jt (cm_mentors ~dom:D.String ()), "dom(Employee.Id)");
      ("AA-JT nullable", st4, cm_jt (cm_mentors ~extra:nonnull_extra ()), "Extra");
      ("AA-JT table differs", st4, cm_jt (cm_mentors ~name:"HR" ()), "HR");
      ("AA-JT table mentioned", st4,
       cm_jt
         ~assoc:{ (mentors Edm.Association.Zero_or_one) with end1 = "Customer"; end2 = "Employee" }
         ~fmap:[ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] (stored st4 "Client"),
       "Client");
      ("AP exact", st4, cm_ap ~fmap:[ ("Level", "Lvl") ] (cm_emplvl ()), "must map");
      ("AP one-to-one", st4, cm_ap ~fmap:[ ("Id", "Id"); ("Level", "Id") ] (cm_emplvl ()),
       "one-to-one");
      ("AP unknown column", st4, cm_ap ~fmap:[ ("Id", "Id"); ("Level", "Zz") ] (cm_emplvl ()),
       "Zz");
      ("AP key image", st4, cm_ap (cm_emplvl ~name:"LvlK" ~key:[ "Lvl" ] ()), "LvlK");
      ("AP domain (attribute)", st4, cm_ap (cm_emplvl ~lvl:D.String ()), "dom(Level)");
      ("AP domain (key)", st4, cm_ap (cm_emplvl ~id:D.String ()), "dom(Id)");
      ("AP nullable", st4, cm_ap (cm_emplvl ~extra:nonnull_extra ()), "Extra");
      ("AP table differs", st4, cm_ap (cm_emplvl ~name:"HR" ()), "HR");
      ("AP table mentioned", st4, cm_ap ~dom:D.String ~fmap:[ ("Id", "Id"); ("Level", "Name") ]
         (stored st4 "HR"),
       "HR") ]
  in
  let failures =
    List.filter_map
      (fun (label, st, smo, needle) ->
        match Core.Engine.apply st smo with
        | Ok _ -> Some (label ^ ": accepted")
        | Error e ->
            let msg = show_v e in
            if contains ~sub:needle msg then None
            else Some (Printf.sprintf "%s: %S does not contain %S" label msg needle))
      rows
  in
  check Alcotest.(list string) "every row rejected, naming its culprit" [] failures

(* -- DropEntity ---------------------------------------------------------------- *)

let test_drop_entity () =
  let _, _, st3, st4 = Lazy.force paper_states in
  (* Customer is a Supports endpoint at stage 4: refuse. *)
  checkb "endpoint drop refused" true
    (Result.is_error (Core.Engine.apply st4 (Core.Smo.Drop_entity { etype = "Customer" })));
  (* At stage 3 Customer is droppable; fragments revert to Σ2 shape. *)
  let smo = Core.Smo.Drop_entity { etype = "Customer" } in
  let st = ok_v (Core.Engine.apply st3 smo) in
  Recompile.check "drop Customer" st3 smo st;
  (* φ3 disappears; φ'1 keeps its (now redundant) widened condition, which is
     semantically Σ2's φ1 on the shrunken schema. *)
  check Alcotest.int "Customer fragment removed" 2
    (Mapping.Fragments.size st.Core.State.fragments);
  checkb "Client table unmapped" false
    (List.mem "Client" (Mapping.Fragments.tables st.Core.State.fragments));
  let inst =
    restrict_new_components ~old_schema:st.Core.State.env.Query.Env.client
      P.sample_client
  in
  checkb "roundtrip after drop" true (ok_exn (roundtrip_ok st inst))

(* -- drops that would leave a NOT NULL column unwritten ------------------------ *)

(* Person(Id, Name) in HR(Id, Name, Dep), Dept(Id) in DeptT(Id), and, when
   [works_in], WorksIn (every person works in one department) stored by
   HR.Dep -> DeptT.Id; [name] and [dep] say whether HR.Name and HR.Dep are
   declared not null. *)
let hr_state ~name ~dep ~works_in =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Persons"
         (Edm.Entity_type.root ~name:"Person" ~key:[ "Id" ] ~non_null:[ "Name" ]
            [ ("Id", D.Int); ("Name", D.String) ])
         Edm.Schema.empty)
  in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Depts"
         (Edm.Entity_type.root ~name:"Dept" ~key:[ "Id" ] [ ("Id", D.Int) ])
         client)
  in
  let client =
    if not works_in then client
    else
      ok_exn
        (Edm.Schema.add_association
           { Edm.Association.name = "WorksIn"; end1 = "Person"; end2 = "Dept";
             mult1 = Edm.Association.Many; mult2 = Edm.Association.One }
           client)
  in
  let null b = if b then `Not_null else `Null in
  let store =
    List.fold_left
      (fun acc t -> ok_exn (Relational.Schema.add_table t acc))
      Relational.Schema.empty
      [
        T.make ~name:"DeptT" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ];
        T.make ~name:"HR" ~key:[ "Id" ]
          ~fks:[ { T.fk_columns = [ "Dep" ]; ref_table = "DeptT"; ref_columns = [ "Id" ] } ]
          [ ("Id", D.Int, `Not_null); ("Name", D.String, null name); ("Dep", D.Int, null dep) ];
      ]
  in
  let frags =
    Mapping.Fragments.of_list
      ([
         F.entity ~set:"Persons" ~cond:(C.Is_of "Person") ~table:"HR"
           [ ("Id", "Id"); ("Name", "Name") ];
         F.entity ~set:"Depts" ~cond:(C.Is_of "Dept") ~table:"DeptT" [ ("Id", "Id") ];
       ]
      @
      if works_in then
        [ F.assoc ~assoc:"WorksIn" ~table:"HR" ~store_cond:(C.Is_not_null "Dep")
            [ ("Person.Id", "Id"); ("Dept.Id", "Dep") ] ]
      else [])
  in
  ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags)

(* AddProperty into an existing, unused, nullable column that carries a
   foreign key: Person.Boss into HR.Dep, which references DeptT.Id.  The
   new fragment writes HR.Dep, so the SMO re-proves the key; no Person
   need have a Boss that is a department, so it is refused, as the full
   compiler refuses the same mapping. *)
let boss_into_dep =
  Core.Smo.Add_property
    { etype = "Person"; attr = ("Boss", D.Int);
      target = Core.Add_property.To_existing_table { table = "HR"; column = "Dep" } }

let test_add_property_existing_fk () =
  let st = hr_state ~name:false ~dep:false ~works_in:false in
  let smo = boss_into_dep in
  let st' =
    match Core.Engine.compile st smo with
    | Ok (st', obls) ->
        check Alcotest.(list string) "obligations" [ "fk:HR(Dep)->DeptT" ]
          (List.map (fun o -> Lazy.force o.Containment.Obligation.name) obls);

        st'
    | Error e -> Alcotest.failf "AddProperty refused before its proofs: %s" (show_v e)
  in
  let inst =
    Edm.Instance.add_entity ~set:"Persons"
      (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.Null); ("Boss", V.Int 7) ])
      Edm.Instance.empty
  in
  checkb "Boss reads back from HR.Dep" true (ok_exn (roundtrip_ok st' inst));
  (match Core.Engine.apply st smo with
  | Ok _ -> Alcotest.fail "AddProperty into HR.Dep accepted"
  | Error e -> checkb "the refusal names the foreign key" true (contains ~sub:"HR(Dep)" (show_v e)));
  match Fullc.Compile.compile st'.Core.State.env st'.Core.State.fragments with
  | Ok _ -> Alcotest.fail "the full compiler accepts the mapping"
  | Error e -> checkb "the full compiler names the foreign key" true (contains ~sub:"HR(Dep)" e)

(* The AddProperty fault above, planted here rather than in the SMO: HR's
   old update view, which pads HR.Dep with NULL, left-joined with the new
   fragment's update side without first dropping that column, so the
   non-key column Dep is on both join sides.  Discharge types each raw
   side before it simplifies it, so the FK obligation over that view fails
   with the typing error rather than being proven. *)
let test_discharge_refuses_ill_typed () =
  let st = hr_state ~name:false ~dep:false ~works_in:false in
  let st', _ = ok_v (Core.Engine.compile st boss_into_dep) in
  let env = st'.Core.State.env in
  let phi = List.find (fun f -> F.mem_attr f "Boss") (Mapping.Fragments.on_table st'.Core.State.fragments "HR") in
  let old_view = Option.get (Query.View.table_view st.Core.State.update_views "HR") in
  let planted = A.Join (Query.Join.Left, old_view, F.update_side phi, [ "Id" ]) in
  let typing_error =
    match A.infer env planted with Error e -> e | Ok _ -> Alcotest.fail "the planted view is well typed"
  in
  let uv = Query.View.set_table_view "HR" planted st'.Core.State.update_views in
  let fk = List.hd (Relational.Schema.get_table env.Query.Env.store "HR").T.fks in
  match Containment.Discharge.run (ok_v (Core.Algo.fk_obligations env uv ~table:"HR" fk)) with
  | Ok () -> Alcotest.fail "the foreign key over the ill-typed view is proven"
  | Error e ->
      check Alcotest.(pair (option string) string) "failing obligation, typing error"
        (Some "fk:HR(Dep)->DeptT", typing_error) (e.Containment.Validation_error.obligation, e.message)

let test_drops_keep_not_null_written () =
  let drop_name = Core.Smo.Drop_property { etype = "Person"; attr = "Name" } in
  let drop_works_in = Core.Smo.Drop_association { assoc = "WorksIn" } in
  List.iter
    (fun (label, st, smo, column) ->
      match Core.Engine.apply st smo with
      | Ok _ -> Alcotest.failf "%s: accepted, leaving %s unwritten" label column
      | Error e ->
          let msg = show_v e in
          if not (contains ~sub:column msg) then
            Alcotest.failf "%s: %S does not name %s" label msg column)
    [
      ("drop property Person.Name", hr_state ~name:true ~dep:false ~works_in:true, drop_name, "HR.Name");
      ("drop assoc WorksIn", hr_state ~name:false ~dep:true ~works_in:true, drop_works_in, "HR.Dep");
    ];
  (* With the column nullable, each drop is accepted, and full validation
     accepts what it leaves. *)
  List.iter
    (fun (label, st, smo) ->
      let st' = ok_v (Core.Engine.apply st smo) in
      Recompile.check label st smo st';
      check_written label st';
      match Fullc.Validate.run st'.Core.State.env st'.Core.State.fragments with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: full validation rejects the result: %s" label e)
    [
      ("drop property Person.Name (nullable)", hr_state ~name:false ~dep:false ~works_in:true, drop_name);
      ("drop assoc WorksIn (nullable)", hr_state ~name:false ~dep:false ~works_in:true, drop_works_in);
    ]

(* Tag(Id, Label) mapped by two equal fragments: dropping Label leaves each
   with only the key and implied by the other, and [Fragments.remove] takes
   both, so Tag keeps no fragment.  DropProperty's coverage step, which
   runs only after a removal, refuses the drop naming the uncovered key. *)
let test_drop_property_twins () =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Tags"
         (Edm.Entity_type.root ~name:"Tag" ~key:[ "Id" ] [ ("Id", D.Int); ("Label", D.String) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (T.make ~name:"TagT" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Label", D.String, `Null) ])
         Relational.Schema.empty)
  in
  let f =
    F.entity ~set:"Tags" ~cond:(C.Is_of "Tag") ~table:"TagT" [ ("Id", "Id"); ("Label", "Label") ]
  in
  let frags = Mapping.Fragments.of_list [ f; { f with pairs = f.pairs } ] in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  match Core.Engine.apply st (Core.Smo.Drop_property { etype = "Tag"; attr = "Label" }) with
  | Ok _ -> Alcotest.fail "accepted, leaving Tag unmapped"
  | Error e ->
      let msg = show_v e in
      if not (contains ~sub:"attribute Id of entity type Tag is not covered" msg) then
        Alcotest.failf "%S is not the coverage failure" msg

(* -- Refactor ------------------------------------------------------------------- *)

(* Departments 1-0..1 Managers, Dept's fragment holding [dept_cond]. *)
let heads_state ~dept_cond =
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Depts"
         (Edm.Entity_type.root ~name:"Dept" ~key:[ "Did" ]
            [ ("Did", D.Int); ("DName", D.String) ])
         Edm.Schema.empty)
  in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Mgrs"
         (Edm.Entity_type.root ~name:"Mgr" ~key:[ "Mid" ]
            [ ("Mid", D.Int); ("MName", D.String) ])
         client)
  in
  let client =
    ok_exn
      (Edm.Schema.add_association
         { Edm.Association.name = "Heads"; end1 = "Dept"; end2 = "Mgr";
           mult1 = Edm.Association.One; mult2 = Edm.Association.Zero_or_one }
         client)
  in
  let store =
    List.fold_left
      (fun acc t -> ok_exn (Relational.Schema.add_table t acc))
      Relational.Schema.empty
      [
        T.make ~name:"DeptT" ~key:[ "Did" ]
          [ ("Did", D.Int, `Not_null); ("DName", D.String, `Null) ];
        T.make ~name:"MgrT" ~key:[ "Mid" ]
          ~fks:[ { T.fk_columns = [ "Did" ]; ref_table = "DeptT"; ref_columns = [ "Did" ] } ]
          [ ("Mid", D.Int, `Not_null); ("MName", D.String, `Null); ("Did", D.Int, `Null) ];
      ]
  in
  let frags =
    Mapping.Fragments.of_list
      [
        F.entity ~set:"Depts" ~cond:dept_cond ~table:"DeptT"
          [ ("Did", "Did"); ("DName", "DName") ];
        F.entity ~set:"Mgrs" ~cond:(C.Is_of "Mgr") ~table:"MgrT"
          [ ("Mid", "Mid"); ("MName", "MName") ];
        F.assoc ~assoc:"Heads" ~table:"MgrT" ~store_cond:(C.Is_not_null "Did")
          [ ("Dept.Did", "Did"); ("Mgr.Mid", "Mid") ];
      ]
  in
  ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags)

(* Refactor Manager under Department. *)
let refactor_heads ~dept_cond () =
  let st = heads_state ~dept_cond in
  let smo = Core.Smo.Refactor { assoc = "Heads" } in
  let st' = ok_v (Core.Engine.apply st smo) in
  Recompile.check "refactor Heads" st smo st';
  let client' = st'.Core.State.env.Query.Env.client in
  checkb "Mgr now derives Dept" true (Edm.Schema.parent client' "Mgr" = Some "Dept");
  check Alcotest.(list string) "Mgr attributes" [ "Did"; "DName"; "Mid"; "MName" ]
    (Edm.Schema.attribute_names client' "Mgr");
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Depts"
         (Edm.Instance.entity ~etype:"Dept" [ ("Did", V.Int 1); ("DName", V.String "sales") ])
    |> Edm.Instance.add_entity ~set:"Depts"
         (Edm.Instance.entity ~etype:"Mgr"
            [ ("Did", V.Int 2); ("DName", V.String "ops"); ("Mid", V.Int 7);
              ("MName", V.String "max") ])
  in
  checkb "merged hierarchy roundtrips" true (ok_exn (roundtrip_ok st' inst));
  st'

let test_refactor () = ignore (refactor_heads ~dept_cond:(C.Is_of "Dept") ())

(* Each shrinking SMO emits only what its change can break (DESIGN §2):
   DropEntity and DropProperty nothing, DropAssociation the foreign keys
   over the columns its fragment wrote that some fragment still writes
   (none of WorksIn's: no fragment writes HR.Dep after the drop), Refactor
   every foreign key of the absorbed subtree's table. *)
let test_drop_obligations () =
  let names st smo =
    match Core.Engine.compile st smo with
    | Ok (_, obls) -> List.map (fun o -> Lazy.force o.Containment.Obligation.name) obls
    | Error e -> Alcotest.failf "%s: %s" (Core.Smo.show smo) (show_v e)
  in
  let pins st smo expected =
    check Alcotest.(list string) (Core.Smo.show smo ^ " obligations") expected (names st smo)
  in
  let _, _, st3, _ = Lazy.force paper_states in
  pins st3 (Core.Smo.Drop_entity { etype = "Customer" }) [];
  pins st3 (Core.Smo.Drop_property { etype = "Employee"; attr = "Department" }) [];
  pins (hr_state ~name:false ~dep:false ~works_in:true)
    (Core.Smo.Drop_association { assoc = "WorksIn" })
    [];
  pins (heads_state ~dept_cond:(C.Is_of "Dept")) (Core.Smo.Refactor { assoc = "Heads" })
    [ "fk:MgrT(Did)->DeptT" ]

(* Dept's [IS OF (ONLY Dept)] widens to admit Mgr, as Algorithm 2 widens
   the parent's ONLY conditions, and the other fragments keep theirs. *)
let test_refactor_widens_only () =
  let st' = refactor_heads ~dept_cond:(C.Is_of_only "Dept") () in
  check Alcotest.(list string) "DeptT's condition"
    [ C.show (C.Or (C.Is_of_only "Dept", C.Is_of "Mgr")) ]
    (List.map (fun (f : F.t) -> C.show f.client_cond)
       (Mapping.Fragments.on_table st'.Core.State.fragments "DeptT"))

let test_refactor_subtree () =
  (* Refactor where the absorbed root has its own subtree, mapped TPH into a
     single table (the supported single-table shape). *)
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Depts"
         (Edm.Entity_type.root ~name:"Dept" ~key:[ "Did" ]
            [ ("Did", D.Int); ("DName", D.String) ])
         Edm.Schema.empty)
  in
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Mgrs"
         (Edm.Entity_type.root ~name:"Mgr" ~key:[ "Mid" ]
            [ ("Mid", D.Int); ("MName", D.String) ])
         client)
  in
  let client =
    ok_exn
      (Edm.Schema.add_derived
         (Edm.Entity_type.derived ~name:"SeniorMgr" ~parent:"Mgr" [ ("Bonus", D.Int) ])
         client)
  in
  let client =
    ok_exn
      (Edm.Schema.add_association
         { Edm.Association.name = "Heads"; end1 = "Dept"; end2 = "Mgr";
           mult1 = Edm.Association.One; mult2 = Edm.Association.Zero_or_one }
         client)
  in
  let store =
    List.fold_left
      (fun acc t -> ok_exn (Relational.Schema.add_table t acc))
      Relational.Schema.empty
      [
        T.make ~name:"DeptT" ~key:[ "Did" ]
          [ ("Did", D.Int, `Not_null); ("DName", D.String, `Null) ];
        T.make ~name:"MgrT" ~key:[ "Mid" ]
          [ ("Mid", D.Int, `Not_null); ("MName", D.String, `Null); ("Kind", D.String, `Null);
            ("Bonus", D.Int, `Null); ("Did", D.Int, `Null) ];
      ]
  in
  let frags =
    Mapping.Fragments.of_list
      [
        F.entity ~set:"Depts" ~cond:(C.Is_of "Dept") ~table:"DeptT"
          [ ("Did", "Did"); ("DName", "DName") ];
        F.entity ~set:"Mgrs" ~cond:(C.Is_of_only "Mgr") ~table:"MgrT"
          ~store_cond:(C.Cmp ("Kind", C.Eq, V.String "mgr"))
          [ ("Mid", "Mid"); ("MName", "MName") ];
        F.entity ~set:"Mgrs" ~cond:(C.Is_of_only "SeniorMgr") ~table:"MgrT"
          ~store_cond:(C.Cmp ("Kind", C.Eq, V.String "senior"))
          [ ("Mid", "Mid"); ("MName", "MName"); ("Bonus", "Bonus") ];
        F.assoc ~assoc:"Heads" ~table:"MgrT" ~store_cond:(C.Is_not_null "Did")
          [ ("Dept.Did", "Did"); ("Mgr.Mid", "Mid") ];
      ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  let smo = Core.Smo.Refactor { assoc = "Heads" } in
  let st' = ok_v (Core.Engine.apply st smo) in
  Recompile.check "refactor Heads" st smo st';
  let client' = st'.Core.State.env.Query.Env.client in
  checkb "Mgr derives Dept" true (Edm.Schema.parent client' "Mgr" = Some "Dept");
  checkb "SeniorMgr follows" true
    (Edm.Schema.is_subtype client' ~sub:"SeniorMgr" ~sup:"Dept");
  let inst =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Depts"
         (Edm.Instance.entity ~etype:"Dept" [ ("Did", V.Int 1); ("DName", V.String "sales") ])
    |> Edm.Instance.add_entity ~set:"Depts"
         (Edm.Instance.entity ~etype:"SeniorMgr"
            [ ("Did", V.Int 2); ("DName", V.String "ops"); ("Mid", V.Int 7);
              ("MName", V.String "max"); ("Bonus", V.Int 100) ])
  in
  checkb "merged subtree roundtrips" true (ok_exn (roundtrip_ok st' inst))

let test_facet_modifications () =
  let _, _, _, st4 = Lazy.force paper_states in
  (* Widening: CredScore Int -> Decimal is rejected (Client.Score is Int),
     but widening works where the column is already wide enough. *)
  checkb "widening beyond the column rejected" true
    (Result.is_error
       (Core.Engine.apply st4
          (Core.Smo.Widen_attribute
             { etype = "Customer"; attr = "CredScore"; domain = D.Decimal })));
  (* Build a model whose column is Decimal but the attribute is Int. *)
  let client =
    ok_exn
      (Edm.Schema.add_root ~set:"Ms"
         (Edm.Entity_type.root ~name:"M" ~key:[ "Id" ] [ ("Id", D.Int); ("Qty", D.Int) ])
         Edm.Schema.empty)
  in
  let store =
    ok_exn
      (Relational.Schema.add_table
         (T.make ~name:"MT" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Qty", D.Decimal, `Null) ])
         Relational.Schema.empty)
  in
  let frags =
    Mapping.Fragments.of_list
      [ F.entity ~set:"Ms" ~cond:(C.Is_of "M") ~table:"MT" [ ("Id", "Id"); ("Qty", "Qty") ] ]
  in
  let st = ok_exn (Fullc.Compile.compile (Query.Env.make ~client ~store) frags) in
  let st =
    ok_v
      (Core.Engine.apply st
         (Core.Smo.Widen_attribute { etype = "M"; attr = "Qty"; domain = D.Decimal }))
  in
  checkb "domain widened" true
    (Edm.Schema.attribute_domain st.Core.State.env.Query.Env.client "M" "Qty" = Some D.Decimal);
  let inst =
    Edm.Instance.add_entity ~set:"Ms"
      (Edm.Instance.entity ~etype:"M" [ ("Id", V.Int 1); ("Qty", V.Decimal 1.5) ])
      Edm.Instance.empty
  in
  checkb "decimal values roundtrip after widening" true (ok_exn (roundtrip_ok st inst));
  (* Multiplicity: loosening Supports to many-to-many is fine... *)
  let st_loose =
    ok_v
      (Core.Engine.apply st4
         (Core.Smo.Set_multiplicity
            { assoc = "Supports"; mult = (Edm.Association.Many, Edm.Association.Many) }))
  in
  checkb "loosened" true
    ((Option.get
        (Edm.Schema.find_association st_loose.Core.State.env.Query.Env.client "Supports"))
       .Edm.Association.mult2
    = Edm.Association.Many);
  (* ...and tightening back is allowed because Supports is FK-mapped keyed by
     its first endpoint. *)
  checkb "tightening under FK layout accepted" true
    (Result.is_ok
       (Core.Engine.apply st_loose
          (Core.Smo.Set_multiplicity
             { assoc = "Supports";
               mult = (Edm.Association.Many, Edm.Association.Zero_or_one) })))

let test_facet_tightening_rejected_for_jt () =
  let _, _, _, st4 = Lazy.force paper_states in
  let jt =
    Core.Smo.Add_assoc_jt
      { assoc =
          { Edm.Association.name = "Mentors"; end1 = "Employee"; end2 = "Customer";
            mult1 = Edm.Association.Many; mult2 = Edm.Association.Many };
        table =
          T.make ~name:"MentorsT" ~key:[ "Eid"; "Cid" ]
            [ ("Eid", D.Int, `Not_null); ("Cid", D.Int, `Not_null) ];
        fmap = [ ("Employee.Id", "Eid"); ("Customer.Id", "Cid") ] }
  in
  let st = ok_v (Core.Engine.apply st4 jt) in
  match
    Core.Engine.apply st
      (Core.Smo.Set_multiplicity
         { assoc = "Mentors"; mult = (Edm.Association.Many, Edm.Association.Zero_or_one) })
  with
  | Ok _ -> Alcotest.fail "tightening a join-table association must abort"
  | Error e -> checkb "mentions enforceability" true (contains ~sub:"cannot be enforced" (show_v e))

(* -- timing wrapper ------------------------------------------------------------- *)

let test_apply_timed () =
  let st1, _, _, _ = Lazy.force paper_states in
  let _, timing = ok_v (Core.Engine.apply_timed st1 smo_employee) in
  checkb "nonnegative time" true (timing.Core.Engine.seconds >= 0.0);
  check Alcotest.string "label" "AE-TPT" timing.Core.Engine.smo

(* Every SMO is one validation step: an accepted [Engine.apply] proves its
   obligations in exactly one discharge batch, whatever their number.  The
   obligation counts are the SMOs' own (E3: AEP-np proves 2^n foreign keys). *)
let test_one_batch_per_smo () =
  let env, frags = Workload.Chain.generate ~size:10 in
  let st = ok_exn (Fullc.Compile.compile env frags) in
  let batches = Obs.Metric.counter "discharge.batches" in
  let obligations = Containment.Obligation.discharged in
  let expected =
    [ ("AE-TPT", 1); ("AE-TPC", 0); ("AE-TPH", 5); ("AEP-1p", 2); ("AEP-2p", 4); ("AEP-3p", 8);
      ("AA-FK", 1); ("AA-JT", 2); ("AP", 0) ]
  in
  let accepted =
    List.filter_map
      (fun (label, smo) ->
        let b0 = Obs.Metric.value batches and o0 = Obs.Metric.value obligations in
        match Core.Engine.apply st smo with
        | Error _ -> None
        | Ok _ ->
            check Alcotest.int (label ^ ": one batch") 1 (Obs.Metric.value batches - b0);
            Some (label, Obs.Metric.value obligations - o0))
      (Workload.Chain.smo_suite ~at:5)
  in
  check Alcotest.(list (pair string int)) "obligations per accepted SMO" expected accepted

(* AddEntity is AddEntityPart's one-partition case with ψ = TRUE: every AE
   of the paper, chain and customer suites and of the random pipelines
   gives the same saved state, the same obligation names and the same
   verdict as that one-partition AEP. *)
let as_one_partition = function
  | Core.Smo.Add_entity { entity; alpha; p_ref; table; fmap } ->
      Core.Smo.Add_entity_part
        { entity; p_ref;
          parts =
            [ { Core.Add_entity_part.part_alpha = alpha; part_cond = C.True; part_table = table;
                part_fmap = fmap } ] }
  | smo -> Alcotest.failf "%s is not an AddEntity" (Core.Smo.name smo)

let outcome st smo =
  match Core.Engine.compile st smo with
  | Error e -> ([], Error (show_v e))
  | Ok (st', obls) ->
      let verdict = Result.map_error show_v (Containment.Discharge.run obls) in
      ( List.sort String.compare (List.map (fun o -> Lazy.force o.Containment.Obligation.name) obls),
        Result.map (fun () -> Surface.State_io.save st') verdict )

let test_ae_is_one_partition () =
  let compiled (env, frags) =
    ok_exn (Fullc.Compile.compile ~validate:false env frags)
  in
  let aes suite =
    List.filter (fun (_, smo) -> match smo with Core.Smo.Add_entity _ -> true | _ -> false) suite
  in
  let st1, st2, _, _ = Lazy.force paper_states in
  let chain = compiled (Workload.Chain.generate ~size:10) in
  let customer = compiled (Workload.Customer.generate ()) in
  let random =
    List.filter_map
      (fun seed ->
        let st = compiled (Workload.Random_model.generate ~seed ()) in
        match random_pipeline seed st with
        | Some (ae :: _) -> Some (Printf.sprintf "random %d" seed, st, ae)
        | _ -> None)
      (List.init 36 (fun i -> i + 1))
  in
  let cases =
    [ ("paper Employee", st1, smo_employee); ("paper Customer", st2, smo_customer) ]
    @ List.map
        (fun (l, smo) -> ("chain " ^ l, chain, smo))
        (aes (Workload.Chain.smo_suite ~at:5))
    @ List.map
        (fun (l, smo) -> ("customer " ^ l, customer, smo))
        (aes (Workload.Customer.smo_suite ()))
    @ random
  in
  let accepted =
    List.filter
      (fun (label, st, smo) ->
        let names, saved = outcome st smo in
        let names', saved' = outcome st (as_one_partition smo) in
        check Alcotest.(list string) (label ^ ": obligation names") names names';
        check Alcotest.(result string string) (label ^ ": saved state") saved saved';
        Result.is_ok saved)
      cases
  in
  checkb "accepted and rejected AEs among the cases" true
    (accepted <> [] && List.length accepted < List.length cases)

let () =
  Alcotest.run "core"
    [
      ( "paper pipeline",
        [
          Alcotest.test_case "fragments match Σ2..Σ4" `Quick test_fragments_match_paper;
          Alcotest.test_case "schemas match stage 4" `Quick test_schemas_match_paper;
          Alcotest.test_case "sample roundtrip" `Quick test_sample_roundtrip;
          prop_incremental_roundtrip;
          prop_incremental_equals_full;
          prop_soundness_restriction;
        ] );
      ( "validation",
        [
          Alcotest.test_case "Fig. 6 violation aborts" `Quick test_fig6_violation_aborts;
          Alcotest.test_case "Fig. 6 with an in-table association aborts" `Quick
            test_fig6_in_table_assoc_aborts;
          Alcotest.test_case "Fig. 6 with a join-table association aborts" `Quick
            test_fig6_join_table_assoc_aborts;
          Alcotest.test_case "precondition failures" `Quick test_precondition_failures;
          Alcotest.test_case "AddAssocFK check 1" `Quick test_assoc_fk_check1;
        ] );
      ( "tph",
        [
          Alcotest.test_case "add two TPH types" `Quick test_tph_add;
          Alcotest.test_case "discriminator clash" `Quick test_tph_discriminator_clash;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "adult/young roundtrip" `Quick test_part_roundtrip;
          Alcotest.test_case "coverage gap" `Quick test_part_coverage_gap;
          Alcotest.test_case "Decimal coverage gap" `Quick test_part_decimal_gap;
          Alcotest.test_case "equality on the superset side" `Quick test_part_gold;
          Alcotest.test_case "gender example" `Quick test_part_gender_example;
        ] );
      ( "property",
        [
          Alcotest.test_case "existing table" `Quick test_add_property_existing;
          Alcotest.test_case "new table" `Quick test_add_property_new_table;
          Alcotest.test_case "existing column with a foreign key" `Quick
            test_add_property_existing_fk;
          Alcotest.test_case "discharge refuses an ill-typed view" `Quick
            test_discharge_refuses_ill_typed;
          Alcotest.test_case "drop a TPT type's only attribute" `Quick
            test_drop_tpt_only_attribute;
        ] );
      ( "column map",
        [
          Alcotest.test_case "valid controls accepted" `Quick test_column_map_controls;
          Alcotest.test_case "rejection table" `Quick test_column_map_rejections;
        ] );
      ( "drop and refactor",
        [
          Alcotest.test_case "drop entity" `Quick test_drop_entity;
          Alcotest.test_case "drops keep NOT NULL columns written" `Quick
            test_drops_keep_not_null_written;
          Alcotest.test_case "drop property from twin fragments" `Quick test_drop_property_twins;
          Alcotest.test_case "refactor association" `Quick test_refactor;
          Alcotest.test_case "refactor widens ONLY conditions" `Quick test_refactor_widens_only;
          Alcotest.test_case "refactor with a subtree" `Quick test_refactor_subtree;
          Alcotest.test_case "each drop emits only what it can break" `Quick
            test_drop_obligations;
        ] );
      ( "facets",
        [
          Alcotest.test_case "widen and multiplicity" `Quick test_facet_modifications;
          Alcotest.test_case "join-table tightening rejected" `Quick
            test_facet_tightening_rejected_for_jt;
        ] );
      ( "engine",
        [
          Alcotest.test_case "timed application" `Quick test_apply_timed;
          Alcotest.test_case "one discharge batch per SMO" `Quick test_one_batch_per_smo;
          Alcotest.test_case "AE is the one-partition AEP" `Quick test_ae_is_one_partition;
        ] );
    ]
