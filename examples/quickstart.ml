(* Quickstart: the paper's running example (Fig. 1), end to end.

   1. Bootstrap a one-type model (Person -> HR) with a full compilation.
   2. Evolve it with three SMOs, compiled incrementally:
        AddEntity Employee (TPT), AddEntity Customer (TPC),
        AddAssocFK Supports.
   3. Store some entities through the update views and read them back
      through the query views — the roundtrip the mapping guarantees.

   Run with: dune exec examples/quickstart.exe *)

module D = Datum.Domain
module V = Datum.Value
module T = Relational.Table

let ok = function Ok x -> x | Error e -> failwith e
let ok_v = function Ok x -> x | Error e -> failwith (Containment.Validation_error.show e)

let () =
  (* -- 1. the initial model ------------------------------------------- *)
  let person =
    Edm.Entity_type.root ~name:"Person" ~key:[ "Id" ] [ ("Id", D.Int); ("Name", D.String) ]
  in
  let client = ok (Edm.Schema.add_root ~set:"Persons" person Edm.Schema.empty) in
  let hr = T.make ~name:"HR" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Name", D.String, `Null) ] in
  let store = ok (Relational.Schema.add_table hr Relational.Schema.empty) in
  let fragments =
    Mapping.Fragments.of_list
      [ Mapping.Fragment.entity ~set:"Persons" ~cond:(Query.Cond.Is_of "Person") ~table:"HR"
          [ ("Id", "Id"); ("Name", "Name") ] ]
  in
  let env = Query.Env.make ~client ~store in
  let st = ok (Fullc.Compile.compile env fragments) in
  print_endline "bootstrapped: Person -> HR";

  (* -- 2. three incremental schema changes ----------------------------- *)
  let employee =
    Edm.Entity_type.derived ~name:"Employee" ~parent:"Person" [ ("Department", D.String) ]
  in
  let emp =
    T.make ~name:"Emp" ~key:[ "Id" ]
      ~fks:[ { T.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
      [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null) ]
  in
  let customer =
    Edm.Entity_type.derived ~name:"Customer" ~parent:"Person"
      [ ("CredScore", D.Int); ("BillAddr", D.String) ]
  in
  let client_tbl =
    T.make ~name:"Client" ~key:[ "Cid" ]
      ~fks:[ { T.fk_columns = [ "Eid" ]; ref_table = "Emp"; ref_columns = [ "Id" ] } ]
      [ ("Cid", D.Int, `Not_null); ("Eid", D.Int, `Null); ("Name", D.String, `Null);
        ("Score", D.Int, `Null); ("Addr", D.String, `Null) ]
  in
  let st =
    ok_v
      (Core.Engine.apply_all st
         [
           Core.Smo.Add_entity
             { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
               table = emp; fmap = [ ("Id", "Id"); ("Department", "Dept") ] };
           Core.Smo.Add_entity
             { entity = customer; alpha = [ "Id"; "Name"; "CredScore"; "BillAddr" ];
               p_ref = None; table = client_tbl;
               fmap =
                 [ ("Id", "Cid"); ("Name", "Name"); ("CredScore", "Score");
                   ("BillAddr", "Addr") ] };
           Core.Smo.Add_assoc_fk
             { assoc =
                 { Edm.Association.name = "Supports"; end1 = "Customer"; end2 = "Employee";
                   mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
               table = "Client";
               fmap = [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] };
         ])
  in
  print_endline "evolved: + Employee (TPT), + Customer (TPC), + Supports (FK)";
  Format.printf "@.mapping fragments (the paper's Σ4):@.%a@.@." Mapping.Fragments.pp
    st.Core.State.fragments;

  (* -- 3. store and read back ------------------------------------------ *)
  let e = Edm.Instance.entity in
  let data =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"Persons"
         (e ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "Ana") ])
    |> Edm.Instance.add_entity ~set:"Persons"
         (e ~etype:"Employee"
            [ ("Id", V.Int 2); ("Name", V.String "Bob"); ("Department", V.String "Sales") ])
    |> Edm.Instance.add_entity ~set:"Persons"
         (e ~etype:"Customer"
            [ ("Id", V.Int 3); ("Name", V.String "Cyd"); ("CredScore", V.Int 700);
              ("BillAddr", V.String "1 Oak St") ])
    |> Edm.Instance.add_link ~assoc:"Supports"
         (Datum.Row.of_list [ ("Customer.Id", V.Int 3); ("Employee.Id", V.Int 2) ])
  in
  let env = st.Core.State.env in
  let stored = ok (Query.View.apply_update_views env st.Core.State.update_views data) in
  Format.printf "store state (through the update views):@.%a@.@." Relational.Instance.pp stored;
  let back = ok (Query.View.apply_query_views env st.Core.State.query_views stored) in
  Format.printf "read back (through the query views):@.%a@.@." Edm.Instance.pp back;
  Printf.printf "roundtrips: %b\n" (Edm.Instance.equal back data);

  (* -- 4. translate a client query by view unfolding -------------------- *)
  let q =
    Query.Algebra.project_cols [ "Id"; "Name" ]
      (Query.Algebra.Select
         (Query.Cond.Is_of "Employee", Query.Algebra.Scan (Query.Algebra.Entity_set "Persons")))
  in
  let sql = ok (Query.Unfold.client_query env st.Core.State.query_views q) in
  Format.printf "@.client query π(Id,Name) σ(IS OF Employee)(Persons) unfolds to:@.%a@."
    Query.Pretty.query sql
