open Common

let env = pe.Workload.Paper_example.env
let persons = A.Scan (A.Entity_set "Persons")
let sel c q = A.Select (c, q)
let proj cols q = A.project_cols cols q

let assert_subset msg expected q1 q2 =
  match Containment.Check.subset env q1 q2 with
  | Ok b -> checkb msg expected b
  | Error e -> Alcotest.failf "%s: %s" msg e

(* -- type-hierarchy reasoning --------------------------------------------- *)

let test_type_containments () =
  let emp_ids = proj [ "Id" ] (sel (C.Is_of "Employee") persons) in
  let person_ids = proj [ "Id" ] (sel (C.Is_of "Person") persons) in
  assert_subset "Employee ⊆ Person" true emp_ids person_ids;
  assert_subset "Person ⊄ Employee" false person_ids emp_ids;
  let only_person = proj [ "Id" ] (sel (C.Is_of_only "Person") persons) in
  assert_subset "ONLY Person ⊆ Person" true only_person person_ids;
  assert_subset "Person ⊄ ONLY Person" false person_ids only_person;
  let split =
    A.Union_all
      (proj [ "Id" ] (sel (C.Is_of_only "Person") persons),
       A.Union_all
         (proj [ "Id" ] (sel (C.Is_of "Employee") persons),
          proj [ "Id" ] (sel (C.Is_of "Customer") persons)))
  in
  assert_subset "partition union covers hierarchy" true person_ids split;
  assert_subset "partition union within hierarchy" true split person_ids

let test_unsatisfiable_sides () =
  let empty = proj [ "Id" ] (sel (C.And (C.Is_of_only "Person", C.Is_of "Employee")) persons) in
  let anything = proj [ "Id" ] (sel (C.Is_of "Customer") persons) in
  assert_subset "empty query contained in anything" true empty anything;
  assert_subset "nonempty not contained in empty" false anything empty

(* -- comparison reasoning -------------------------------------------------- *)

let test_interval_containments () =
  let ge n = proj [ "Id" ] (sel (C.Cmp ("Id", C.Ge, V.Int n)) persons) in
  let gt n = proj [ "Id" ] (sel (C.Cmp ("Id", C.Gt, V.Int n)) persons) in
  assert_subset "Id>=18 ⊆ Id>=10" true (ge 18) (ge 10);
  assert_subset "Id>=10 ⊄ Id>=18" false (ge 10) (ge 18);
  assert_subset "Id>17 ⊆ Id>=18 (integers)" true (gt 17) (ge 18);
  assert_subset "Id>=18 ⊆ Id>17" true (ge 18) (gt 17);
  let between = proj [ "Id" ] (sel (C.And (C.Cmp ("Id", C.Ge, V.Int 5), C.Cmp ("Id", C.Le, V.Int 3))) persons) in
  assert_subset "empty interval contained anywhere" true between (ge 18);
  let eq5 = proj [ "Id" ] (sel (C.Cmp ("Id", C.Eq, V.Int 5)) persons) in
  let neq7 = proj [ "Id" ] (sel (C.Cmp ("Id", C.Neq, V.Int 7)) persons) in
  assert_subset "Id=5 ⊆ Id<>7" true eq5 neq7;
  assert_subset "Id<>7 ⊄ Id=5" false neq7 eq5

let test_null_reasoning () =
  let dept_null = proj [ "Id" ] (sel (C.Is_null "Department") persons) in
  let dept_not_null = proj [ "Id" ] (sel (C.Is_not_null "Department") persons) in
  let all_ids = proj [ "Id" ] persons in
  assert_subset "null side within all" true dept_null all_ids;
  assert_subset "null ⊄ not-null" false dept_null dept_not_null;
  let dept_sales = proj [ "Id" ] (sel (C.Cmp ("Department", C.Eq, V.String "Sales")) persons) in
  assert_subset "comparison implies not-null" true dept_sales dept_not_null

(* -- joins and projections -------------------------------------------------- *)

let hr = A.Scan (A.Table "HR")
let emp = A.Scan (A.Table "Emp")

let test_join_containments () =
  let joined = proj [ "Id" ] (A.Join (hr, emp, [ "Id" ])) in
  let hr_ids = proj [ "Id" ] hr in
  let emp_ids = proj [ "Id" ] emp in
  assert_subset "join ⊆ left side" true joined hr_ids;
  assert_subset "join ⊆ right side" true joined emp_ids;
  assert_subset "left ⊄ join" false hr_ids joined;
  (* Constants discriminate. *)
  let tagged = A.Project ([ A.col "Id"; A.tag "t" ], hr) in
  let untagged = A.Project ([ A.col "Id"; A.const (V.Bool false) "t" ], hr) in
  assert_subset "distinct constants" false tagged untagged;
  assert_subset "same query with constants" true tagged tagged

let test_outer_join_projection_rule () =
  (* π_Id(HR ⟕ Emp) ≡ π_Id(HR): the exact elimination rule. *)
  let loj = proj [ "Id"; "Name" ] (A.Left_outer_join (hr, emp, [ "Id" ])) in
  let plain = proj [ "Id"; "Name" ] hr in
  assert_subset "LOJ projected to left ⊆ left" true loj plain;
  assert_subset "left ⊆ LOJ projected to left" true plain loj;
  (* FOJ projected onto the join columns is the union of both sides. *)
  let foj =
    proj [ "Id" ]
      (A.Full_outer_join
         (A.project_renamed [ ("Id", "Id"); ("Name", "Name") ] hr,
          A.project_renamed [ ("Id", "Id"); ("Dept", "Dept") ] emp,
          [ "Id" ]))
  in
  let union = A.Union_all (proj [ "Id" ] hr, proj [ "Id" ] emp) in
  assert_subset "FOJ on keys ⊆ union" true foj union;
  assert_subset "union ⊆ FOJ on keys" true union foj

let test_outer_join_approximation_soundness () =
  (* When the projection needs both sides, only sound directions are
     provable. *)
  let loj = proj [ "Id"; "Dept" ] (A.Left_outer_join (hr, emp, [ "Id" ])) in
  let joined = proj [ "Id"; "Dept" ] (A.Join (hr, emp, [ "Id" ])) in
  assert_subset "join ⊆ LOJ" true joined loj;
  assert_subset "LOJ ⊄ join (padding rows)" false loj joined

(* -- the paper's validation checks (Example 6) ------------------------------ *)

let test_example6_checks () =
  (* πId(σ IS OF Employee(Persons)) ⊆ πId(σ IS OF Person(Persons)) *)
  let q_emp = proj [ "Id" ] (sel (C.Is_of "Employee") persons) in
  let q_per = proj [ "Id" ] (sel (C.Is_of "Person") persons) in
  assert_subset "Example 6: Emp FK check" true q_emp q_per;
  (* Example 7 check 2 (after unfolding): customer ids storable in Client. *)
  let q_cust = proj [ "Id" ] (sel (C.Is_of "Customer") persons) in
  assert_subset "Example 7: Cid check" true q_cust q_cust

(* -- soundness property ------------------------------------------------------ *)

let query_pool =
  [
    proj [ "Id" ] (sel (C.Is_of "Person") persons);
    proj [ "Id" ] (sel (C.Is_of "Employee") persons);
    proj [ "Id" ] (sel (C.Is_of "Customer") persons);
    proj [ "Id" ] (sel (C.Is_of_only "Person") persons);
    proj [ "Id" ] (sel (C.Or (C.Is_of_only "Person", C.Is_of "Employee")) persons);
    proj [ "Id" ] (sel (C.Cmp ("Id", C.Ge, V.Int 10)) persons);
    proj [ "Id" ] (sel (C.And (C.Is_of "Employee", C.Cmp ("Id", C.Ge, V.Int 10))) persons);
    proj [ "Id" ] (sel (C.Is_null "Department") persons);
    A.Union_all
      (proj [ "Id" ] (sel (C.Is_of "Employee") persons),
       proj [ "Id" ] (sel (C.Is_of "Customer") persons));
  ]

let prop_soundness =
  qtest "containment verdicts sound wrt evaluation" ~count:300
    QCheck.(triple (int_range 0 8) (int_range 0 8) arb_client_instance)
    (fun (i, j, inst) ->
      let q1 = List.nth query_pool i and q2 = List.nth query_pool j in
      match Containment.Check.subset env q1 q2 with
      | Error e -> QCheck.Test.fail_reportf "normalization error: %s" e
      | Ok true ->
          let db = Query.Eval.client_db inst in
          Query.Eval.subset env db q1 q2
          || QCheck.Test.fail_reportf "claimed ⊆ but counterexample:@.%s" (Edm.Instance.show inst)
      | Ok false -> true)

let test_stats_counting () =
  let module K = Containment.Check in
  let checks0 = Obs.Metric.value K.checks and pairs0 = Obs.Metric.value K.cq_pairs in
  let q = proj [ "Id" ] (sel (C.Is_of "Employee") persons) in
  let _ = K.subset env q q in
  check Alcotest.int "checks counted" 1 (Obs.Metric.value K.checks - checks0);
  checkb "cq pairs explored" true (Obs.Metric.value K.cq_pairs - pairs0 >= 1)

let test_cache_correctness () =
  (* Memoization must not change a single verdict, and a repeated pass over
     the same checks must be answered from the cache. *)
  let pairs =
    List.concat_map (fun q1 -> List.map (fun q2 -> (q1, q2)) query_pool) query_pool
  in
  let verdicts () = List.map (fun (q1, q2) -> Containment.Check.subset env q1 q2) pairs in
  let plain = verdicts () in
  Containment.Check.set_caching true;
  Containment.Check.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Containment.Check.set_caching false;
      Containment.Check.clear_cache ())
    (fun () ->
      let same tag a b =
        List.iteri
          (fun i (x, y) ->
            match x, y with
            | Ok bx, Ok by ->
                checkb (Printf.sprintf "%s: pair %d verdict" tag i) bx by
            | Error _, Error _ -> ()
            | _, _ -> Alcotest.failf "%s: pair %d changed outcome kind" tag i)
          (List.combine a b)
      in
      let cached = verdicts () in
      same "caching on vs off" plain cached;
      let hits0 = Obs.Metric.value Containment.Check.cache_hits in
      let again = verdicts () in
      same "second cached pass" plain again;
      checkb "second pass hits the cache" true
        (Obs.Metric.value Containment.Check.cache_hits > hits0))

(* Two 30-table store schemas that differ only in table 25: there column C
   is NOT NULL in one and nullable in the other, so [T25 ⊆ σ(C IS NOT NULL) T25]
   holds over the first schema only.  A verdict memoized for one schema must
   never be served for the other. *)
let test_cache_key_schema () =
  let store c_null =
    List.fold_left
      (fun s i ->
        let c = if i = 25 then c_null else `Not_null in
        let t =
          Relational.Table.make ~name:(Printf.sprintf "T%02d" i) ~key:[ "Id" ]
            [ ("Id", D.Int, `Not_null); ("C", D.Int, c) ]
        in
        ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty (List.init 30 Fun.id)
  in
  let env_strict = { Query.Env.client = Edm.Schema.empty; store = store `Not_null } in
  let env_loose = { Query.Env.client = Edm.Schema.empty; store = store `Null } in
  let t25 = A.Scan (A.Table "T25") in
  let non_null = sel (C.Is_not_null "C") t25 in
  let verdict env =
    match Containment.Check.subset env t25 non_null with
    | Ok b -> b
    | Error e -> Alcotest.failf "normalization error: %s" e
  in
  checkb "uncached: NOT NULL column" true (verdict env_strict);
  checkb "uncached: nullable column" false (verdict env_loose);
  Containment.Check.set_caching true;
  Containment.Check.clear_cache ();
  Fun.protect
    ~finally:(fun () ->
      Containment.Check.set_caching false;
      Containment.Check.clear_cache ())
    (fun () ->
      checkb "cached: NOT NULL column" true (verdict env_strict);
      checkb "cached: nullable column is not served the other verdict" false
        (verdict env_loose);
      checkb "cached: NOT NULL column again" true (verdict env_strict))

let () =
  Alcotest.run "containment"
    [
      ( "types",
        [
          Alcotest.test_case "hierarchy" `Quick test_type_containments;
          Alcotest.test_case "unsatisfiable" `Quick test_unsatisfiable_sides;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "intervals" `Quick test_interval_containments;
          Alcotest.test_case "nulls" `Quick test_null_reasoning;
        ] );
      ( "structure",
        [
          Alcotest.test_case "joins" `Quick test_join_containments;
          Alcotest.test_case "outer-join projection rule" `Quick test_outer_join_projection_rule;
          Alcotest.test_case "outer-join approximations" `Quick test_outer_join_approximation_soundness;
          Alcotest.test_case "paper example 6" `Quick test_example6_checks;
        ] );
      ( "properties",
        [
          prop_soundness;
          Alcotest.test_case "stats" `Quick test_stats_counting;
          Alcotest.test_case "cache correctness" `Quick test_cache_correctness;
          Alcotest.test_case "cache key covers the schemas" `Quick test_cache_key_schema;
        ] );
    ]
