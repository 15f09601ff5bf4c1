(* The paper's worked examples, asserted one by one.  Each test quotes the
   artifact the paper derives and checks that this implementation produces
   it (structurally or semantically). *)

open Common
module P = Workload.Paper_example
module A = Query.Algebra
module Ct = Query.Ctor

let employee = Edm.Entity_type.derived ~name:"Employee" ~parent:"Person" [ ("Department", D.String) ]

let customer =
  Edm.Entity_type.derived ~name:"Customer" ~parent:"Person"
    [ ("CredScore", D.Int); ("BillAddr", D.String) ]

let emp_table =
  Relational.Table.make ~name:"Emp" ~key:[ "Id" ]
    ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
    [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null) ]

let client_table =
  Relational.Table.make ~name:"Client" ~key:[ "Cid" ]
    ~fks:[ { Relational.Table.fk_columns = [ "Eid" ]; ref_table = "Emp"; ref_columns = [ "Id" ] } ]
    [ ("Cid", D.Int, `Not_null); ("Eid", D.Int, `Null); ("Name", D.String, `Null);
      ("Score", D.Int, `Null); ("Addr", D.String, `Null) ]

let smo_employee =
  Core.Smo.Add_entity
    { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person"; table = emp_table;
      fmap = [ ("Id", "Id"); ("Department", "Dept") ] }

let smo_customer =
  Core.Smo.Add_entity
    { entity = customer; alpha = [ "Id"; "Name"; "CredScore"; "BillAddr" ]; p_ref = None;
      table = client_table;
      fmap = [ ("Id", "Cid"); ("Name", "Name"); ("CredScore", "Score"); ("BillAddr", "Addr") ] }

let smo_supports =
  Core.Smo.Add_assoc_fk
    { assoc =
        { Edm.Association.name = "Supports"; end1 = "Customer"; end2 = "Employee";
          mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
      table = "Client"; fmap = [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] }

let st1 = lazy (ok_exn (Fullc.Compile.compile P.stage1.P.env P.stage1.P.fragments))
let st2 = lazy (ok_v (Core.Engine.apply (Lazy.force st1) smo_employee))
let st3 = lazy (ok_v (Core.Engine.apply (Lazy.force st2) smo_customer))
let st4 = lazy (ok_v (Core.Engine.apply (Lazy.force st3) smo_supports))

(* Example 1: Σ1 = {φ1} with query view (π Id,Name (HR) | Person(Id,Name))
   and update view (π Id,Name (σ IS OF Person (Persons)) | HR(Id,Name)). *)
let test_example1 () =
  let st = Lazy.force st1 in
  check Alcotest.int "Σ1 has one fragment" 1 (Mapping.Fragments.size st.Core.State.fragments);
  let qv = Option.get (Query.View.entity_view st.Core.State.query_views "Person") in
  (* Semantically: the Person view (projected to its attributes, setting the
     bootstrap's provenance flag aside) is exactly π Id,Name (HR). *)
  let narrowed = A.project_cols [ "Id"; "Name" ] qv.Query.View.query in
  let hr = A.project_cols [ "Id"; "Name" ] (A.Scan (A.Table "HR")) in
  let uv = Option.get (Query.View.table_view st.Core.State.update_views "HR") in
  let env = st.Core.State.env in
  let equiv name lhs rhs =
    [
      Containment.Obligation.make ~name:(lazy (name ^ ".lr")) ~env ~lhs ~rhs
        ~on_fail:(lazy (name ^ " not contained left-to-right"));
      Containment.Obligation.make ~name:(lazy (name ^ ".rl")) ~env ~lhs:rhs ~rhs:lhs
        ~on_fail:(lazy (name ^ " not contained right-to-left"));
    ]
  in
  let obls =
    equiv "ex1.person-view" narrowed hr
    @ equiv "ex1.hr-view"
        (A.project_cols [ "Id"; "Name" ] uv)
        (A.project_cols [ "Id"; "Name" ]
           (A.Select (C.Is_of "Person", A.Scan (A.Entity_set "Persons"))))
  in
  match Containment.Discharge.run obls with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Example 1 views: %s" (Containment.Validation_error.show e)

(* Example 2 / Algorithm 1: Q2_Employee = Q1_Person ⋈ π(Id, Dept AS
   Department)(Emp); Q2_Person = Q1_Person ⟕ π(..., true AS tE)(Emp) with
   τ2_Person = if tE then Employee(...) else Person(...). *)
let test_example2 () =
  let st = Lazy.force st2 in
  let v_emp = Option.get (Query.View.entity_view st.Core.State.query_views "Employee") in
  (match v_emp.Query.View.query with
  | A.Join (Query.Join.Inner, _, A.Project (items, A.Scan (A.Table "Emp")), [ "Id" ]) ->
      checkb "renames Dept to Department" true
        (List.exists
           (function A.Col { src = "Dept"; dst = "Department" } -> true | _ -> false)
           items)
  | q -> Alcotest.failf "unexpected Q2_Employee shape: %a" A.pp q);
  checkb "τ2_Employee constructs Employee" true
    (Ct.equal v_emp.Query.View.ctor
       (Ct.Entity { etype = "Employee"; attrs = [ "Id"; "Name"; "Department" ] }));
  let v_per = Option.get (Query.View.entity_view st.Core.State.query_views "Person") in
  (match v_per.Query.View.query with
  | A.Join (Query.Join.Left, _, A.Project (items, A.Scan (A.Table "Emp")), [ "Id" ]) ->
      checkb "tagged branch" true
        (List.exists (function A.Const { dst; _ } -> dst = "_tEmployee" | _ -> false) items)
  | q -> Alcotest.failf "unexpected Q2_Person shape: %a" A.pp q);
  match v_per.Query.View.ctor with
  | Ct.If (C.Cmp ("_tEmployee", C.Eq, V.Bool true), Ct.Entity { etype = "Employee"; _ },
           Ct.Entity { etype = "Person"; _ }) ->
      ()
  | c -> Alcotest.failf "unexpected τ2_Person: %a" Ct.pp c

(* Example 3 / Algorithm 2: Q2_Emp = π(Id, Department AS Dept)(σ IS OF
   Employee (Persons)); Q2_HR unchanged from Q1_HR. *)
let test_example3 () =
  let st = Lazy.force st2 in
  (match Option.get (Query.View.table_view st.Core.State.update_views "Emp") with
  | A.Project (items, A.Select (C.Is_of "Employee", A.Scan (A.Entity_set "Persons"))) ->
      checkb "renames Department to Dept" true
        (List.exists
           (function A.Col { src = "Department"; dst = "Dept" } -> true | _ -> false)
           items)
  | q -> Alcotest.failf "unexpected Q2_Emp shape: %a" A.pp q);
  let before = Option.get (Query.View.table_view (Lazy.force st1).Core.State.update_views "HR") in
  let after = Option.get (Query.View.table_view st.Core.State.update_views "HR") in
  checkb "Q2_HR = Q1_HR" true (Query.Algebra.equal before after)

(* Example 4: the TPC addition — Q3_Customer over Client alone; Q3_Person
   gains a UNION ALL branch; Q3_HR rewrites IS OF Person to
   IS OF (ONLY Person) ∨ IS OF Employee. *)
let test_example4 () =
  let st = Lazy.force st3 in
  let v_cust = Option.get (Query.View.entity_view st.Core.State.query_views "Customer") in
  (match v_cust.Query.View.query with
  | A.Project (_, A.Scan (A.Table "Client")) -> ()
  | q -> Alcotest.failf "unexpected Q3_Customer shape: %a" A.pp q);
  let v_per = Option.get (Query.View.entity_view st.Core.State.query_views "Person") in
  (match v_per.Query.View.query with
  | A.Union_all (_, _) -> ()
  | q -> Alcotest.failf "Q3_Person should be a union, got %a" A.pp q);
  let v_hr = Option.get (Query.View.table_view st.Core.State.update_views "HR") in
  let conds = ref [] in
  let rec collect = function
    | A.Select (c, q) -> conds := c :: !conds; collect q
    | A.Project (_, q) -> collect q
    | A.Scan _ -> ()
    | A.Join (_, l, r, _)
    | A.Union_all (l, r) -> collect l; collect r
  in
  collect v_hr;
  checkb "Q3_HR condition widened" true
    (List.exists
       (fun c -> C.equal c (C.Or (C.Is_of_only "Person", C.Is_of "Employee")))
       (List.map C.simplify !conds))

(* Example 5: Σ3 = {φ'1, φ2, φ3} verbatim. *)
let test_example5 () =
  checkb "Σ2" true
    (Mapping.Fragments.equal (Lazy.force st2).Core.State.fragments P.stage2.P.fragments);
  checkb "Σ3" true
    (Mapping.Fragments.equal (Lazy.force st3).Core.State.fragments P.stage3.P.fragments)

(* Example 6: the Emp FK check unfolds to πId(σ IS OF Employee (Persons)) ⊆
   πId(σ IS OF Person (Persons)), which holds because Employee inherits from
   Person; the Client FK to Emp needs no check when adding Customer. *)
let test_example6 () =
  let env = (Lazy.force st2).Core.State.env in
  let lhs =
    A.project_cols [ "Id" ] (A.Select (C.Is_of "Employee", A.Scan (A.Entity_set "Persons")))
  in
  let rhs =
    A.project_cols [ "Id" ] (A.Select (C.Is_of "Person", A.Scan (A.Entity_set "Persons")))
  in
  checkb "containment holds" true
    (Result.is_ok
       (Containment.Discharge.run
          [
            Containment.Obligation.make ~name:(lazy "ex6.emp-fk") ~env ~lhs ~rhs
              ~on_fail:(lazy "Employee keys not contained in Person keys");
          ]));
  (* ...and the whole AddEntity validated, which the staged pipeline already
     proves by existing. *)
  checkb "Customer addition validated" true (Lazy.force st3 |> fun _ -> true)

(* Example 7: Σ4 gains φ4 with the NOT NULL condition; the update view for
   Client becomes (previous view minus Eid) ⟕ Supports. *)
let test_example7 () =
  let st = Lazy.force st4 in
  checkb "Σ4" true (Mapping.Fragments.equal st.Core.State.fragments P.stage4.P.fragments);
  (match Option.get (Query.View.table_view st.Core.State.update_views "Client") with
  | A.Join
      ( Query.Join.Left,
        A.Project (items, _),
        A.Project (_, A.Scan (A.Assoc_set "Supports")),
        [ "Cid" ] )
    ->
      checkb "Eid excluded from the left side" true
        (not (List.exists (fun it -> A.dst_of it = "Eid") items))
  | q -> Alcotest.failf "unexpected Q4_Client shape: %a" A.pp q);
  match Option.get (Query.View.assoc_view st.Core.State.query_views "Supports") with
  | A.Project (_, A.Select (c, A.Scan (A.Table "Client"))) ->
      checkb "selects Eid IS NOT NULL" true (C.equal c (C.Is_not_null "Eid"))
  | q -> Alcotest.failf "unexpected Q_Supports shape: %a" A.pp q

(* Figure 4's companion claim (Section 1.1): "for the same entity schema, if
   each entity type is mapped to a separate table, mapping compilation is
   under 0.2 seconds for all of the cases reported". *)
let test_tpt_contrast () =
  List.iter
    (fun (n, m) ->
      let env, frags = Workload.Hub_rim.generate ~n ~m ~style:`Tpt in
      let t0 = Unix.gettimeofday () in
      (match Fullc.Compile.compile env frags with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "TPT n=%d m=%d: %s" n m e);
      let dt = Unix.gettimeofday () -. t0 in
      checkb (Printf.sprintf "TPT n=%d m=%d under 0.2s" n m) true (dt < 0.2))
    [ (1, 5); (2, 3); (3, 2) ]

let () =
  Alcotest.run "paper examples"
    [
      ( "worked examples",
        [
          Alcotest.test_case "Example 1 (Σ1 and its views)" `Quick test_example1;
          Alcotest.test_case "Example 2 (Algorithm 1)" `Quick test_example2;
          Alcotest.test_case "Example 3 (Algorithm 2)" `Quick test_example3;
          Alcotest.test_case "Example 4 (TPC)" `Quick test_example4;
          Alcotest.test_case "Example 5 (Σ2, Σ3)" `Quick test_example5;
          Alcotest.test_case "Example 6 (validation)" `Quick test_example6;
          Alcotest.test_case "Example 7 (AddAssocFK)" `Quick test_example7;
          Alcotest.test_case "Section 1.1 TPT contrast" `Quick test_tpt_contrast;
        ] );
    ]
