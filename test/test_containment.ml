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

(* A variable forced equal to a constant is that constant on both sides,
   so a superset CQ with an equality maps onto its own subset. *)
let test_equalities () =
  let sales cols = proj cols (sel (C.Cmp ("Department", C.Eq, V.String "Sales")) persons) in
  assert_subset "π[Id] Department = 'Sales' ⊆ itself" true (sales [ "Id" ]) (sales [ "Id" ]);
  assert_subset "π[Id, Department] Department = 'Sales' ⊆ itself" true
    (sales [ "Id"; "Department" ]) (sales [ "Id"; "Department" ]);
  assert_subset "Department = 'Sales' ⊆ Department IS NOT NULL" true (sales [ "Id" ])
    (proj [ "Id" ] (sel (C.Is_not_null "Department") persons));
  assert_subset "an equality's column ⊆ the same constant projected" true
    (sales [ "Id"; "Department" ])
    (A.Project ([ A.col "Id"; A.const (V.String "Sales") "Department" ], sales [ "Id" ]));
  assert_subset "Department = 'Sales' ⊄ Department = 'HR'" false (sales [ "Id" ])
    (proj [ "Id" ] (sel (C.Cmp ("Department", C.Eq, V.String "HR")) persons));
  assert_subset "Department = 'Sales' AND Department <> 'Sales' is empty" true
    (proj [ "Id" ]
       (sel (C.And (C.Cmp ("Department", C.Eq, V.String "Sales"),
                    C.Cmp ("Department", C.Neq, V.String "Sales"))) persons))
    (proj [ "Id" ] (sel C.False persons))

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
  let joined = proj [ "Id" ] (A.Join (Query.Join.Inner, hr, emp, [ "Id" ])) in
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
  let loj = proj [ "Id"; "Name" ] (A.Join (Query.Join.Left, hr, emp, [ "Id" ])) in
  let plain = proj [ "Id"; "Name" ] hr in
  assert_subset "LOJ projected to left ⊆ left" true loj plain;
  assert_subset "left ⊆ LOJ projected to left" true plain loj;
  (* FOJ projected onto the join columns is the union of both sides. *)
  let foj =
    proj [ "Id" ]
      (A.Join
         ( Query.Join.Full,
           A.project_renamed [ ("Id", "Id"); ("Name", "Name") ] hr,
           A.project_renamed [ ("Id", "Id"); ("Dept", "Dept") ] emp,
           [ "Id" ] ))
  in
  let union = A.Union_all (proj [ "Id" ] hr, proj [ "Id" ] emp) in
  assert_subset "FOJ on keys ⊆ union" true foj union;
  assert_subset "union ⊆ FOJ on keys" true union foj

let test_outer_join_approximation_soundness () =
  (* When the projection needs both sides, only sound directions are
     provable. *)
  let loj = proj [ "Id"; "Dept" ] (A.Join (Query.Join.Left, hr, emp, [ "Id" ])) in
  let joined = proj [ "Id"; "Dept" ] (A.Join (Query.Join.Inner, hr, emp, [ "Id" ])) in
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
          || QCheck.Test.fail_reportf "claimed ⊆ but counterexample:@.%a" Edm.Instance.pp inst
      | Ok false -> true)

let test_stats_counting () =
  let module K = Containment.Check in
  let checks0 = Obs.Metric.value K.checks and pairs0 = Obs.Metric.value K.cq_pairs in
  let q = proj [ "Id" ] (sel (C.Is_of "Employee") persons) in
  let _ = K.subset env q q in
  check Alcotest.int "checks counted" 1 (Obs.Metric.value K.checks - checks0);
  checkb "cq pairs explored" true (Obs.Metric.value K.cq_pairs - pairs0 >= 1)

(* Two 30-table store schemas that differ only in table 25: there column C
   is NOT NULL in one and nullable in the other, so [T25 ⊆ σ(C IS NOT NULL) T25]
   holds over the first schema only. *)
let test_schema_nullability () =
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
  checkb "NOT NULL column" true (verdict env_strict);
  checkb "nullable column" false (verdict env_loose)

(* -- the type split: coarse classes against one case per type ------------- *)

module Nf = Containment.Nf
module Obligation = Containment.Obligation

let compiled_state (env, frags) =
  ok_exn (Fullc.Compile.compile ~validate:false env frags)

let customer = lazy (compiled_state (Workload.Customer.generate ()))

(* Each customer suite SMO applied alone to the compiled model, as the
   [session] benchmark applies them, with the obligations it returns. *)
let customer_obligations =
  lazy
    (let st = Lazy.force customer in
     List.map
       (fun (label, smo) ->
         match Core.Engine.compile st smo with
         | Ok (_, obls) -> (label, obls)
         | Error e -> Alcotest.failf "%s: %s" label (show_v e))
       (Workload.Customer.smo_suite ()))

let verdict_testable = Alcotest.(result bool pass)

let split_agrees tag (o : Obligation.t) =
  let coarse = Containment.Check.subset o.Obligation.env o.lhs o.rhs in
  let fine = Per_type_split.subset o.Obligation.env o.lhs o.rhs in
  check verdict_testable (tag ^ " " ^ Lazy.force o.Obligation.name) fine coarse;
  Result.is_ok coarse

let test_split_customer () =
  List.iter
    (fun (label, obls) ->
      List.iter (fun o -> checkb (label ^ " normalizes") true (split_agrees label o)) obls)
    (Lazy.force customer_obligations);
  (* The pool plus a union that covers the hierarchy only type by type. *)
  let pool =
    A.Union_all
      (proj [ "Id" ] (sel (C.Is_of_only "Person") persons),
       A.Union_all
         (proj [ "Id" ] (sel (C.Is_of "Employee") persons),
          proj [ "Id" ] (sel (C.Is_of "Customer") persons)))
    :: query_pool
  in
  List.iteri
    (fun i q1 ->
      List.iteri
        (fun j q2 ->
          check verdict_testable (Printf.sprintf "pool %d ⊆ %d" i j)
            (Per_type_split.subset env q1 q2) (Containment.Check.subset env q1 q2))
        pool)
    pool

(* Obligations of the random SMO pipelines, step by step up to the first
   refused SMO. *)
let pipeline_obligations seed =
  let st = compiled_state (Workload.Random_model.generate ~seed ()) in
  match random_pipeline seed st with
  | None -> []
  | Some smos ->
      let rec go st acc = function
        | [] -> acc
        | smo :: rest -> (
            match Core.Engine.compile st smo with
            | Error _ -> acc
            | Ok (st', obls) -> (
                let acc = List.map (fun o -> (Core.Smo.name smo, o)) obls @ acc in
                match Containment.Discharge.run obls with
                | Ok () -> go st' acc rest
                | Error _ -> acc))
      in
      List.rev (go st [] smos)

let prop_split_random =
  qtest ~count:100 "coarse split ≡ per-type split on random pipelines"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      List.iter
        (fun (label, o) -> ignore (split_agrees (Printf.sprintf "seed %d %s" seed label) o))
        (pipeline_obligations seed);
      true)

(* Random type sets and random superset stores over ten types.  A type set
   is built through a numbering ([numbered]), once the property has made
   one; the numbering sees the partitioned types first. *)
let gen_partition_case =
  let open QCheck.Gen in
  let ty = map (Printf.sprintf "T%d") (int_bound 9) in
  let tys = map (List.sort_uniq String.compare) (list_size (int_range 1 10) ty) in
  let con =
    oneof
      [
        map (fun ts types -> Nf.Ty_in (0, Nf.Types.of_names types ts)) tys;
        map (fun t _ -> Nf.Rel (1, Query.Cond.Eq, V.String t)) ty;
      ]
  in
  let cq =
    map2
      (fun cons head types ->
        { Nf.head = List.map (fun t -> ("c", Nf.C (V.String t))) head; body = [];
          store = Nf.solve (List.map (fun con -> con types) cons) })
      (list_size (int_bound 4) con) (list_size (int_bound 1) ty)
  in
  pair tys (list_size (int_bound 3) cq)

let numbered (tys, against) =
  let types = Nf.Types.create env.Query.Env.client in
  let set = Nf.Types.of_names types tys in
  (types, set, List.map (fun cq -> cq types) against)

let prop_partition =
  qtest ~count:500 "classes partition the types and respect every superset set"
    (QCheck.make gen_partition_case)
    (fun case ->
      let tys = fst case in
      let types, set, against = numbered case in
      let classes = List.map (Nf.Types.names types) (Nf.type_partition types ~against set) in
      let sets =
        List.concat_map
          (fun (cq : Nf.cq) ->
            List.filter_map
              (function
                | Nf.Ty_in (_, ts) -> Some (Nf.Types.names types ts)
                | Nf.Rel (_, _, V.String t) -> Some [ t ]
                | _ -> None)
              (Nf.facts cq.Nf.store)
            @ List.filter_map
                (function _, Nf.C (V.String t) -> Some [ t ] | _ -> None)
                cq.Nf.head)
          against
      in
      List.for_all (fun cls -> cls <> []) classes
      && List.sort String.compare (List.concat classes) = tys
      && List.for_all
           (fun cls ->
             List.for_all
               (fun s ->
                 List.for_all (fun t -> List.mem t s) cls
                 || List.for_all (fun t -> not (List.mem t s)) cls)
               sets)
           classes
      (* Coarsest: two classes differ on some set. *)
      && List.for_all
           (fun c1 ->
             List.for_all
               (fun c2 ->
                 c1 == c2
                 || List.exists (fun s -> List.mem (List.hd c1) s <> List.mem (List.hd c2) s) sets)
               classes)
           classes)

(* AA-JT's foreign-key check types both endpoints over their whole
   hierarchies (95 and 10 types), which no superset CQ tells apart: the
   per-type split made 950 cases of it. *)
let test_aa_jt_cases () =
  let obls = List.assoc "AA-JT" (Lazy.force customer_obligations) in
  let fk =
    List.filter (fun o -> String.starts_with ~prefix:"fk:" (Lazy.force o.Obligation.name)) obls
  in
  checkb "AA-JT has an fk: obligation" true (fk <> []);
  List.iter
    (fun o ->
      let c0 = Obs.Metric.value Containment.Check.cases in
      checkb (Lazy.force o.Obligation.name ^ " proven") true
        (Result.is_ok (Containment.Discharge.run [ o ]));
      check Alcotest.int (Lazy.force o.Obligation.name ^ " cases") 1
        (Obs.Metric.value Containment.Check.cases - c0))
    fk

(* -- narrowed atoms: completeness and the full-width differential --------- *)

(* Each superset side binds a column on the scanned source that the subset
   side never reads, so the subset atom proves containment only once it is
   widened to that column. *)
let test_narrowing_completeness () =
  let customer_env = fst (Workload.Customer.generate ()) in
  let set1 = A.Scan (A.Entity_set "Set1") in
  let verdict env q1 q2 =
    match Containment.Check.subset env q1 q2 with
    | Ok b -> b
    | Error e -> Alcotest.failf "normalization error: %s" e
  in
  checkb "π[Id](Set1) ⊆ π[Id](σ[IS OF C1T0](Set1))" true
    (verdict customer_env (proj [ "Id" ] set1) (proj [ "Id" ] (sel (C.Is_of "C1T0") set1)));
  (* HR.Id is the key, so NOT NULL: a superset testing it holds every row. *)
  checkb "π[Name](HR) ⊆ π[Name](σ[Id IS NOT NULL](HR))" true
    (verdict env (proj [ "Name" ] hr) (proj [ "Name" ] (sel (C.Is_not_null "Id") hr)));
  (* Both superset atoms map onto the one subset atom, through the join
     column Id outside the head. *)
  let self_join =
    proj [ "Name" ] (A.Join (Query.Join.Inner, proj [ "Id"; "Name" ] hr, proj [ "Id" ] hr, [ "Id" ]))
  in
  checkb "π[Name](HR) ⊆ π[Name](HR ⋈[Id] π[Id](HR))" true (verdict env (proj [ "Name" ] hr) self_join);
  (* The superset binds Name on Persons, so the entity atom the chase
     implies for Supports' Employee end must bind it too. *)
  let supported = A.project_renamed [ ("Employee.Id", "Id") ] (A.Scan (A.Assoc_set "Supports")) in
  let named =
    proj [ "Id" ]
      (A.Join (Query.Join.Inner, proj [ "Id"; "Name" ] persons, proj [ "Id" ] persons, [ "Id" ]))
  in
  checkb "π[Employee.Id](Supports) ⊆ π[Id](π[Id,Name](Persons) ⋈[Id] Persons)" true
    (verdict env supported named)

let width_agrees tag (o : Obligation.t) =
  let narrow = Containment.Check.subset o.Obligation.env o.lhs o.rhs in
  let full = Full_width.subset o.Obligation.env o.lhs o.rhs in
  check verdict_testable (tag ^ " " ^ Lazy.force o.Obligation.name) full narrow

let test_width_customer () =
  let st = Lazy.force customer in
  let compile st (label, smo) =
    match Core.Engine.compile st smo with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" label (show_v e)
  in
  List.iter
    (fun (label, smo) -> List.iter (width_agrees label) (snd (compile st (label, smo))))
    (Workload.Customer.smo_suite ());
  (* A drop emits a subset of the foreign keys the drops once re-proved in
     full; those keep the drops' proofs as wide as before. *)
  List.iter
    (fun (label, before, smo) ->
      let st = ok_v (Core.Engine.apply_all st before) in
      let st', _ = compile st (label, smo) in
      List.iter (width_agrees label) (Recompile.unsliced_fk_obligations st smo st'))
    (Workload.Customer.drop_suite ());
  List.iteri
    (fun i q1 ->
      List.iteri
        (fun j q2 ->
          check verdict_testable (Printf.sprintf "pool %d ⊆ %d" i j)
            (Full_width.subset env q1 q2) (Containment.Check.subset env q1 q2))
        query_pool)
    query_pool

let test_width_chain () =
  let st = compiled_state (Workload.Chain.generate ~size:20) in
  let obls =
    List.concat_map
      (fun (label, smo) ->
        match Core.Engine.compile st smo with
        | Ok (_, obls) -> List.map (fun o -> (label, o)) obls
        | Error _ -> [])
      (Workload.Chain.smo_suite ~at:10)
  in
  checkb "chain suite has obligations" true (obls <> []);
  List.iter (fun (label, o) -> width_agrees ("chain " ^ label) o) obls

let prop_width_random =
  qtest ~count:100 "narrowed atoms ≡ full width on random pipelines"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      List.iter
        (fun (label, o) -> width_agrees (Printf.sprintf "seed %d %s" seed label) o)
        (pipeline_obligations seed);
      true)

(* -- the DAG-aware simplifier against the tree walk ---------------------- *)

let views_of (st : Core.State.t) = Query.View.queries st.Core.State.query_views st.Core.State.update_views

let simplify_agrees tag env qs =
  let simplify = Query.Simplify.query env in
  List.iteri
    (fun i q ->
      let s = simplify q in
      checkb (Printf.sprintf "%s #%d matches the tree walk" tag i) true
        (A.equal s (Simplify_tree.query env q));
      checkb (Printf.sprintf "%s #%d simplified is a fixpoint" tag i) true
        (Query.Simplify.query env s == s))
    qs

let test_simplify_customer () =
  let st = Lazy.force customer in
  let env = st.Core.State.env in
  simplify_agrees "customer view" env (views_of st);
  simplify_agrees "customer view, loaded" env
    (views_of (ok_exn (Surface.State_io.load (Surface.State_io.save st))));
  List.iter
    (fun (label, obls) ->
      List.iter
        (fun (o : Obligation.t) ->
          simplify_agrees (label ^ " " ^ Lazy.force o.Obligation.name) o.Obligation.env
            [ o.Obligation.lhs; o.Obligation.rhs ])
        obls)
    (Lazy.force customer_obligations)

let prop_simplify_random =
  qtest ~count:100 "simplify ≡ tree walk on random models"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let st = compiled_state (Workload.Random_model.generate ~seed ()) in
      simplify_agrees (Printf.sprintf "seed %d view" seed) st.Core.State.env (views_of st);
      List.iter
        (fun (label, (o : Obligation.t)) ->
          simplify_agrees
            (Printf.sprintf "seed %d %s %s" seed label (Lazy.force o.Obligation.name))
            o.Obligation.env [ o.Obligation.lhs; o.Obligation.rhs ])
        (pipeline_obligations seed);
      true)

(* -- bitset type sets and solved stores ------------------------------------- *)

module Names = Datum.Name_set

(* Customer Set1's 95 types, numbered as a batch numbers them: the
   hierarchy's subtree set first. *)
let set1 =
  lazy
    (let client = (Lazy.force customer).Core.State.env.Query.Env.client in
     let root = Option.get (Edm.Schema.set_root client "Set1") in
     let types = Nf.Types.create client in
     ignore (Nf.Types.subtypes types root);
     (types, Edm.Schema.subtypes client root))

(* A random subset of [names], each kept with one random probability, so
   empty, small and nearly full sets all occur. *)
let gen_subset names =
  let open QCheck.Gen in
  float_bound_inclusive 1. >>= fun p ->
  map
    (fun keep -> List.filteri (fun i _ -> keep.(i) < p) names)
    (array_repeat (List.length names) (float_bound_exclusive 1.))

let sorted l = List.sort String.compare l

(* The list semantics the bitsets replace. *)
let list_inter a b = List.filter (fun x -> List.mem x b) a

let list_partition sets tys =
  List.fold_left
    (fun classes s ->
      List.concat_map
        (fun cls ->
          match List.partition (fun t -> List.mem t s) cls with
          | [], _ | _, [] -> [ cls ]
          | inside, outside -> [ inside; outside ])
        classes)
    [ tys ] sets

let canonical classes = List.sort compare (List.map sorted classes)

(* Two subsets of Set1, and superset CQs of Set1 subsets and of string
   constants, one of which names no type. *)
let gen_bitset_case =
  let open QCheck.Gen in
  let _, names = Lazy.force set1 in
  let const = oneof [ oneofl names; return "NoSuchType" ] in
  let con =
    oneof [ map (fun ts -> `Ty ts) (gen_subset names); map (fun t -> `Eq t) const ]
  in
  triple (gen_subset names) (gen_subset names) (list_size (int_bound 3) (list_size (int_bound 4) con))

let prop_bitsets =
  qtest ~count:300 "bitset inter, subset, partition ≡ lists on Set1"
    (QCheck.make gen_bitset_case)
    (fun (a, b, against) ->
      let types, _ = Lazy.force set1 in
      let set = Nf.Types.of_names types in
      let names = Nf.Types.names types in
      let sa = set a and sb = set b in
      let cqs =
        List.map
          (fun cons ->
            { Nf.head = []; body = [];
              store =
                Nf.solve
                  (List.map
                     (function
                       | `Ty ts -> Nf.Ty_in (0, set ts)
                       | `Eq t -> Nf.Rel (1, Query.Cond.Eq, V.String t))
                     cons) })
          against
      in
      (* Per variable, as a CQ's store holds them: variable 0's sets
         intersected, and variable 1's first equality. *)
      let sets =
        List.concat_map
          (fun cons ->
            (match List.filter_map (function `Ty ts -> Some ts | `Eq _ -> None) cons with
            | [] -> []
            | ts :: rest -> [ List.fold_left list_inter ts rest ])
            @
            match List.filter_map (function `Eq t -> Some t | `Ty _ -> None) cons with
            | [] -> []
            | t :: _ -> [ [ t ] ])
          against
      in
      sorted (names (Names.inter sa sb)) = sorted (list_inter a b)
      && Names.subset sa sb = List.for_all (fun x -> List.mem x b) a
      && sorted (names (Names.diff sa sb)) = sorted (List.filter (fun x -> not (List.mem x b)) a)
      && Names.is_empty sa = (a = [])
      && Names.at_least_two sa = (List.length a >= 2)
      && (a = []
         || canonical (List.map names (Nf.type_partition types ~against:cqs sa))
            = canonical (list_partition sets a)))

(* Random constraint lists over four variables: Set1 type sets, integer
   comparisons and null tests. *)
let gen_constr =
  let open QCheck.Gen in
  let types, names = Lazy.force set1 in
  let var = int_bound 3 in
  let op = oneofl Query.Cond.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  oneof
    [
      map2 (fun v ts -> Nf.Ty_in (v, Nf.Types.of_names types ts)) var (gen_subset names);
      map3 (fun v op n -> Nf.Rel (v, op, V.Int n)) var op (int_bound 5);
      map (fun v -> Nf.Null_c v) var;
      map (fun v -> Nf.Not_null_c v) var;
    ]

let gen_cons = QCheck.Gen.(list_size (int_bound 8) gen_constr)

let prop_add =
  qtest ~count:500 "adding to a solved store ≡ solving the longer list"
    (QCheck.make QCheck.Gen.(pair gen_constr gen_cons))
    (fun (c, cons) ->
      let added = Nf.add (Nf.solve cons) c and solved = Nf.solve (c :: cons) in
      Nf.For_tests.equal_store added solved && Nf.consistent added = Nf.consistent solved)

let prop_refine =
  qtest ~count:500 "refine ≡ solving with the extra Ty_in"
    (QCheck.make
       QCheck.Gen.(
         triple (int_bound 3) (gen_subset (snd (Lazy.force set1))) gen_cons))
    (fun (v, ts, cons) ->
      let types, _ = Lazy.force set1 in
      let tys = Nf.Types.of_names types ts in
      Nf.For_tests.equal_store (Nf.refine (Nf.solve cons) v tys)
        (Nf.solve (Nf.Ty_in (v, tys) :: cons)))

(* A join merges the facts of the variable it substitutes into those of
   the one it keeps, so a clash across the join prunes the state. *)
let test_join_stores () =
  let join on l r = proj [ "Id" ] (A.Join (Query.Join.Inner, l, r, on)) in
  let id op n q = sel (C.Cmp ("Id", op, V.Int n)) q in
  let typed c = A.project_cols [ "Id"; Query.Env.type_column ] (sel c persons) in
  let by_type = join [ "Id"; Query.Env.type_column ] in
  List.iter
    (fun (tag, q, expected) ->
      let types = Nf.Types.create env.Query.Env.client in
      let q = Query.Simplify.query env q in
      match Nf.normalize ~infer:(Query.Algebra.typing env) types env Nf.Subset_side q with
      | Ok n -> check Alcotest.int (tag ^ " CQs") expected (List.length n.Nf.cqs)
      | Error e -> Alcotest.failf "%s: %s" tag e)
    [
      ("bounds clash", join [ "Id" ] (id C.Ge 5 hr) (id C.Le 3 emp), 0);
      ("bounds clash, swapped", join [ "Id" ] (id C.Le 3 hr) (id C.Ge 5 emp), 0);
      ("bounds meet", join [ "Id" ] (id C.Ge 5 hr) (id C.Le 7 emp), 1);
      ("equalities clash", join [ "Id" ] (id C.Eq 1 hr) (id C.Eq 2 emp), 0);
      ("excluded value", join [ "Id" ] (id C.Eq 1 hr) (id C.Neq 1 emp), 0);
      ("types clash", by_type (typed (C.Is_of "Employee")) (typed (C.Is_of_only "Person")), 0);
      ("types clash, swapped", by_type (typed (C.Is_of_only "Person")) (typed (C.Is_of "Employee")), 0);
      ("types meet", by_type (typed (C.Is_of "Person")) (typed (C.Is_of "Employee")), 1);
      ("constant meets bound", join [ "Id" ] (A.Project ([ A.const (V.Int 7) "Id" ], hr)) (id C.Ge 5 emp), 1);
      ("constant fails bound", join [ "Id" ] (A.Project ([ A.const (V.Int 3) "Id" ], hr)) (id C.Ge 5 emp), 0);
    ]

(* A superset type variable mapped onto a subset string constant holds
   when the constant names a type of the variable's set; a name no type
   has is in no set. *)
let test_constant_types () =
  let tagged ty =
    A.project_cols [ "Id"; Query.Env.type_column ]
      (sel (C.Cmp (Query.Env.type_column, C.Eq, V.String ty)) persons)
  in
  let employees = A.project_cols [ "Id"; Query.Env.type_column ] (sel (C.Is_of "Employee") persons) in
  assert_subset "Employee constant" true (tagged "Employee") employees;
  assert_subset "Customer constant" false (tagged "Customer") employees;
  (* No entity has a type the hierarchy lacks, so the subset side is
     provably empty and contained in anything. *)
  assert_subset "unknown constant" true (tagged "NoSuchType") employees;
  let rand = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let db = Query.Eval.client_db (QCheck.Gen.generate1 ~rand gen_client_instance) in
    check Alcotest.int "unknown constant has no rows" 0
      (List.length (Query.Eval.rows env db (tagged "NoSuchType")))
  done

(* AE-TPH's overlap checks repeat their pairs once simplified: the batch
   proves each distinct pair once. *)
let test_ae_tph_repeats () =
  let obls = List.assoc "AE-TPH" (Lazy.force customer_obligations) in
  let o0 = Obs.Metric.value Obligation.discharged
  and c0 = Obs.Metric.value Containment.Check.checks in
  checkb "AE-TPH proven" true (Result.is_ok (Containment.Discharge.run obls));
  check Alcotest.int "obligations" 26 (Obs.Metric.value Obligation.discharged - o0);
  check Alcotest.int "checks" 5 (Obs.Metric.value Containment.Check.checks - c0)

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
          Alcotest.test_case "equalities" `Quick test_equalities;
          Alcotest.test_case "nulls" `Quick test_null_reasoning;
          Alcotest.test_case "schema nullability" `Quick test_schema_nullability;
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
        ] );
      ( "type split",
        [
          Alcotest.test_case "customer suite matches per-type split" `Quick test_split_customer;
          prop_split_random;
          prop_partition;
          Alcotest.test_case "AA-JT fk check is one case" `Quick test_aa_jt_cases;
        ] );
      ( "bitsets",
        [
          prop_bitsets; prop_add; prop_refine;
          Alcotest.test_case "joins merge both sides' facts" `Quick test_join_stores;
          Alcotest.test_case "string constants against type sets" `Quick test_constant_types;
        ] );
      ("repeats", [ Alcotest.test_case "AE-TPH proves 5 pairs" `Quick test_ae_tph_repeats ]);
      ( "narrowing",
        [
          Alcotest.test_case "widening keeps containment complete" `Quick test_narrowing_completeness;
          Alcotest.test_case "customer suite and drops match full width" `Quick test_width_customer;
          Alcotest.test_case "chain suite matches full width" `Quick test_width_chain;
          prop_width_random;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "customer matches tree walk" `Quick test_simplify_customer;
          prop_simplify_random;
        ] );
    ]
