(* Tests for lib/exec, the physical execution engine: every plan the planner
   produces must evaluate to the same bag of rows as [Query.Eval.rows] on the
   source query — on the paper example (including NULL join keys, outer joins
   and IS OF provenance guards), on random client states, and on random
   models; and the session plan cache must recompile exactly when an SMO
   moves the query views, with undo/redo landing back on cached plans. *)

open Common
module P = Workload.Paper_example
module Plan = Exec.Plan
module Planner = Exec.Planner
module Idb = Exec.Idb
module Run = Exec.Run

let env = P.stage4.P.env

let compiled =
  lazy
    (match Fullc.Compile.compile ~validate:false env P.stage4.P.fragments with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile failed: %s" e)

let qv () = (Lazy.force compiled).Fullc.Compile.query_views
let uv () = (Lazy.force compiled).Fullc.Compile.update_views
let bag rows = List.sort Datum.Row.compare rows

(* True bag equality: duplicates matter, so no sort_uniq here. *)
let bag_equal a b = List.equal Datum.Row.equal (bag a) (bag b)

let check_bags msg a b =
  if not (bag_equal a b) then
    Alcotest.failf "%s: bags differ (%d vs %d rows)" msg (List.length a) (List.length b)

(* Plan [q] as-is (no unfolding) and compare the executor against the naive
   evaluator on [db], sequentially and with parallel scan slicing forced. *)
let check_exec ?(msg = "exec") env db q =
  let plan = ok_exn (Planner.plan env q) in
  let idb = Idb.make env db in
  let naive = Query.Eval.rows env db q in
  check_bags (msg ^ " (jobs=1)") naive (Run.rows idb plan);
  check_bags (msg ^ " (jobs=4)") naive (Run.rows ~jobs:4 ~par_threshold:1 idb plan);
  plan

let store_db = Query.Eval.store_db P.sample_store
let client_db = Query.Eval.client_db P.sample_client

(* -- handcrafted store-level plans over the paper sample ------------------- *)

let test_outer_joins_null_keys () =
  (* Client's Fay row has Eid = NULL: a NULL join key on one side of every
     outer join, which must never match but must still be padded out. *)
  let clients =
    A.Project
      ( [ A.col_as "Eid" "Id"; A.col "Cid"; A.col "Score" ],
        A.Scan (A.Table "Client") )
  in
  let emp = A.Scan (A.Table "Emp") in
  List.iter
    (fun (msg, q) -> ignore (check_exec ~msg env store_db q))
    [
      ("inner join", A.Join (emp, clients, [ "Id" ]));
      ("left outer join", A.Left_outer_join (emp, clients, [ "Id" ]));
      ("left outer join, null side left", A.Left_outer_join (clients, emp, [ "Id" ]));
      ("full outer join", A.Full_outer_join (emp, clients, [ "Id" ]));
      ("full outer join flipped", A.Full_outer_join (clients, emp, [ "Id" ]));
      ("union all", A.Union_all (A.project_cols [ "Id" ] emp, A.project_cols [ "Id" ] clients));
    ];
  (* the unmatched NULL-keyed right row must actually be in the FOJ output *)
  let foj = A.Full_outer_join (emp, clients, [ "Id" ]) in
  let plan = ok_exn (Planner.plan env foj) in
  let rows = Run.rows (Idb.make env store_db) plan in
  checkb "NULL-keyed Client row survives padded" true
    (List.exists
       (fun r ->
         V.equal (Datum.Row.get "Cid" r) (V.Int 6) && V.equal (Datum.Row.get "Id" r) V.Null)
       rows)

(* Joins without equality columns are hash joins whose every key is [[]]:
   the single bucket yields the cross product, and an empty side leaves every
   row of the preserved side NULL-padded. *)
let test_keyless_join () =
  let expect_keyless kind plan =
    match plan with
    | Plan.Hash_join { spec = { Query.Join.on = []; kind = k; _ }; _ } when k = kind -> ()
    | p -> Alcotest.failf "expected a keyless hash join, got:@.%s" (Plan.show p)
  in
  let emp = A.Scan (A.Table "Emp") in
  let cids = A.project_cols [ "Cid"; "Score" ] (A.Scan (A.Table "Client")) in
  let none_of col q = A.Select (C.Cmp (col, C.Eq, V.Int 999), q) in
  let all_null cols rows =
    List.for_all (fun r -> List.for_all (fun c -> V.equal (Datum.Row.get c r) V.Null) cols) rows
  in
  expect_keyless Query.Join.Inner
    (check_exec ~msg:"cross join" env store_db (A.Join (emp, cids, [])));
  let loj = A.Left_outer_join (emp, none_of "Cid" cids, []) in
  expect_keyless Query.Join.Left (check_exec ~msg:"keyless left outer join" env store_db loj);
  let rows = Run.rows (Idb.make env store_db) (ok_exn (Planner.plan env loj)) in
  check Alcotest.int "every Emp row once" 2 (List.length rows);
  checkb "every Emp row padded" true (all_null [ "Cid"; "Score" ] rows);
  let foj = A.Full_outer_join (none_of "Id" emp, cids, []) in
  expect_keyless Query.Join.Full (check_exec ~msg:"keyless full outer join" env store_db foj);
  let rows = Run.rows (Idb.make env store_db) (ok_exn (Planner.plan env foj)) in
  check Alcotest.int "every Client row once" 2 (List.length rows);
  checkb "every Client row padded" true (all_null [ "Id"; "Dept" ] rows)

let test_index_scan () =
  let q = A.Select (C.Cmp ("Id", C.Eq, V.Int 3), A.Scan (A.Table "Emp")) in
  let before = Obs.Metric.snapshot () in
  let plan = check_exec ~msg:"key point lookup" env store_db q in
  check Alcotest.int "one index scan" 1 (Plan.index_scans plan);
  let d = Obs.Metric.diff before (Obs.Metric.snapshot ()) in
  checkb "index hits counted" true
    (match List.assoc_opt "exec.index.hits" d.Obs.Metric.counters with
    | Some n -> n > 0
    | None -> false)

let test_pushdown_through_projection () =
  (* σ(EmpId = 3) over a renaming projection: the conjunct must travel below
     the π (renamed back to Id), turn into an index probe on Emp's key, and
     the projection must fuse into the scan. *)
  let q =
    A.Select
      ( C.Cmp ("EmpId", C.Eq, V.Int 3),
        A.Project ([ A.col_as "Id" "EmpId"; A.col "Dept" ], A.Scan (A.Table "Emp")) )
  in
  let plan = check_exec ~msg:"pushdown+fusion" env store_db q in
  match plan with
  | Plan.Scan { access = Plan.Index_eq { col = "Id"; _ }; proj = Some _; _ } -> ()
  | p -> Alcotest.failf "expected a fused indexed scan, got:@.%s" (Plan.show p)

let test_pushdown_union () =
  let q =
    A.Select
      ( C.Cmp ("Id", C.Eq, V.Int 5),
        A.Union_all
          ( A.project_cols [ "Id" ] (A.Scan (A.Table "HR")),
            A.Project ([ A.col_as "Cid" "Id" ], A.Scan (A.Table "Client")) ) )
  in
  let plan = check_exec ~msg:"union pushdown" env store_db q in
  check Alcotest.int "both branches indexed" 2 (Plan.index_scans plan)

let test_parallel_scan_deterministic () =
  (* Parallel slicing must preserve output order exactly, not just as bags. *)
  let q = A.Select (C.Is_of "Employee", A.Scan (A.Entity_set "Persons")) in
  let plan = ok_exn (Planner.plan env q) in
  let idb = Idb.make env client_db in
  let seq = Run.rows idb plan in
  let par = Run.rows ~jobs:4 ~par_threshold:1 idb plan in
  checkb "identical row lists" true (List.equal Datum.Row.equal seq par)

(* -- unfolded client queries over the paper example ------------------------ *)

let unfold q = ok_exn (Query.Unfold.client_query env (qv ()) q)

let paper_client_queries =
  [
    ("persons scan", A.Scan (A.Entity_set "Persons"));
    ("supports scan", A.Scan (A.Assoc_set "Supports"));
    ("is-of employee", A.Select (C.Is_of "Employee", A.Scan (A.Entity_set "Persons")));
    ( "is-of customer projected",
      A.project_cols [ "Id"; "Name"; "CredScore" ]
        (A.Select (C.Is_of "Customer", A.Scan (A.Entity_set "Persons"))) );
    ( "assoc point lookup",
      A.Select (C.Cmp ("Employee.Id", C.Eq, V.Int 4), A.Scan (A.Assoc_set "Supports")) );
    ( "2-way join",
      A.Join
        ( A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
            (A.Scan (A.Entity_set "Persons")),
          A.Scan (A.Assoc_set "Supports"),
          [ "Employee.Id" ] ) );
  ]

let test_unfolded_paper_queries () =
  List.iter
    (fun (msg, q) -> ignore (check_exec ~msg env store_db (unfold q)))
    paper_client_queries

(* Queries whose client- and store-side answers are directly comparable:
   they project onto declared attributes, erasing the client-only [$type]
   column and the view-only provenance flags. *)
let client_facing_queries =
  [
    ( "is-of employee projected",
      A.project_cols [ "Id"; "Name"; "Department" ]
        (A.Select (C.Is_of "Employee", A.Scan (A.Entity_set "Persons"))) );
    ( "is-of customer projected",
      A.project_cols [ "Id"; "Name"; "CredScore" ]
        (A.Select (C.Is_of "Customer", A.Scan (A.Entity_set "Persons"))) );
    ( "assoc point lookup",
      A.Select (C.Cmp ("Employee.Id", C.Eq, V.Int 4), A.Scan (A.Assoc_set "Supports")) );
    ( "2-way join projected",
      A.Join
        ( A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
            (A.Scan (A.Entity_set "Persons")),
          A.project_cols [ "Customer.Id"; "Employee.Id" ] (A.Scan (A.Assoc_set "Supports")),
          [ "Employee.Id" ] ) );
  ]

(* The unfolded store query through lib/exec must agree with CLIENT-side
   naive evaluation too (view unfolding end to end, guards included). *)
let test_exec_matches_client_semantics () =
  List.iter
    (fun (msg, q) ->
      let store_q = unfold q in
      let plan = ok_exn (Planner.plan env store_q) in
      let exec_rows = Run.rows (Idb.make env store_db) plan in
      let client_rows = Query.Eval.rows env client_db q in
      check_bags msg client_rows exec_rows)
    client_facing_queries

(* -- differential: random client states of the paper schema ---------------- *)

let prop_random_states =
  qtest "exec ≡ Eval.rows on random client states" ~count:200 arb_client_instance
    (fun inst ->
      let store = ok_exn (Query.View.apply_update_views env (uv ()) inst) in
      let db = Query.Eval.store_db store in
      List.iter
        (fun (msg, q) -> ignore (check_exec ~msg env db (unfold q)))
        paper_client_queries;
      List.iter
        (fun (msg, q) ->
          check_bags (msg ^ " vs client")
            (Query.Eval.rows env (Query.Eval.client_db inst) q)
            (Run.rows (Idb.make env db) (ok_exn (Planner.plan env (unfold q)))))
        client_facing_queries;
      true)

(* -- differential: random models ------------------------------------------- *)

let profile =
  { Workload.Random_model.hierarchies = 2; max_types = 3; max_depth = 2; max_attrs = 2; assocs = 1 }

let run_random_model_case seed =
  let env, fragments = Workload.Random_model.generate ~profile ~seed () in
  let schema = env.Query.Env.client in
  match Fullc.Compile.compile ~validate:false env fragments with
  | Error e -> QCheck.Test.fail_reportf "seed %d: compile failed: %s" seed e
  | Ok c ->
      let inst = Roundtrip.Generate.instance ~seed ~entities_per_set:5 schema in
      let store =
        match Query.View.apply_update_views env c.Fullc.Compile.update_views inst with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_reportf "seed %d: update views failed: %s" seed e
      in
      let db = Query.Eval.store_db store in
      let queries =
        List.concat_map
          (fun (set, root) ->
            A.Scan (A.Entity_set set)
            :: List.map
                 (fun ty -> A.Select (C.Is_of ty, A.Scan (A.Entity_set set)))
                 (Edm.Schema.subtypes schema root))
          (Edm.Schema.entity_sets schema)
        @ List.map
            (fun (a : Edm.Association.t) -> A.Scan (A.Assoc_set a.Edm.Association.name))
            (Edm.Schema.associations schema)
      in
      List.iter
        (fun q ->
          match Query.Unfold.client_query env c.Fullc.Compile.query_views q with
          | Error _ -> () (* some guards are untranslatable over optimized views *)
          | Ok store_q -> (
              try ignore (check_exec ~msg:(A.show q) env db store_q)
              with Alcotest.Test_error | Failure _ ->
                QCheck.Test.fail_reportf "seed %d: exec mismatch on %s" seed (A.show q)))
        queries;
      true

let prop_random_models =
  qtest "exec ≡ Eval.rows on random models" ~count:220
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    run_random_model_case

(* -- session plan cache ----------------------------------------------------- *)

(* Stage 1 -> Add_entity Employee, as in the paper pipeline. *)
let employee_smo =
  let employee =
    Edm.Entity_type.derived ~name:"Employee" ~parent:"Person"
      [ ("Department", Datum.Domain.String) ]
  in
  let emp_table =
    Relational.Table.make ~name:"Emp" ~key:[ "Id" ]
      ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
      [ ("Id", Datum.Domain.Int, `Not_null); ("Dept", Datum.Domain.String, `Null) ]
  in
  Core.Smo.Add_entity
    { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
      table = emp_table; fmap = [ ("Id", "Id"); ("Department", "Dept") ] }

let cache_counts f =
  let before = Obs.Metric.snapshot () in
  let r = f () in
  let d = Obs.Metric.diff before (Obs.Metric.snapshot ()) in
  let count name = Option.value ~default:0 (List.assoc_opt name d.Obs.Metric.counters) in
  (r, count "exec.plan.cache.hit", count "exec.plan.cache.miss")

let expect_cache msg ~hit ~miss (got_hit, got_miss) =
  check Alcotest.(pair int int) (msg ^ ": (hit, miss)") (hit, miss) (got_hit, got_miss)

let test_plan_cache () =
  let s1 = Workload.Paper_example.stage1 in
  let st = ok_exn (Core.State.bootstrap s1.P.env s1.P.fragments) in
  let session = Core.Session.start st in
  let q = A.Scan (A.Entity_set "Persons") in
  let query s = cache_counts (fun () -> ok_exn (Core.Session.query_plan s q)) in
  let plan0, h, m = query session in
  expect_cache "first compile" ~hit:0 ~miss:1 (h, m);
  let plan0', h, m = query session in
  expect_cache "repeat is cached" ~hit:1 ~miss:0 (h, m);
  checkb "same physical plan" true (plan0 == plan0');
  (* an SMO moves the query views: same query must recompile *)
  let session' = ok_v (Core.Session.apply session employee_smo) in
  let plan1, h, m = query session' in
  expect_cache "after SMO" ~hit:0 ~miss:1 (h, m);
  checkb "recompiled against the new views" false (plan0 == plan1);
  (* undo returns to the old views: the original plan is still cached *)
  let undone =
    match Core.Session.undo session' with
    | Some s -> s
    | None -> Alcotest.fail "undo failed"
  in
  let plan_undo, h, m = query undone in
  expect_cache "after undo" ~hit:1 ~miss:0 (h, m);
  checkb "undo restores the cached plan" true (plan0 == plan_undo);
  (* and redo lands back on the post-SMO generation *)
  let redone =
    match Core.Session.redo undone with
    | Some s -> s
    | None -> Alcotest.fail "redo failed"
  in
  let plan_redo, h, m = query redone in
  expect_cache "after redo" ~hit:1 ~miss:0 (h, m);
  checkb "redo restores the recompiled plan" true (plan1 == plan_redo)

let test_plan_cache_per_query () =
  let s1 = Workload.Paper_example.stage1 in
  let st = ok_exn (Core.State.bootstrap s1.P.env s1.P.fragments) in
  let session = Core.Session.start st in
  let q1 = A.Scan (A.Entity_set "Persons") in
  let q2 = A.project_cols [ "Id" ] (A.Scan (A.Entity_set "Persons")) in
  let _, h, m = cache_counts (fun () -> ok_exn (Core.Session.query_plan session q1)) in
  expect_cache "q1 compiles" ~hit:0 ~miss:1 (h, m);
  let _, h, m = cache_counts (fun () -> ok_exn (Core.Session.query_plan session q2)) in
  expect_cache "q2 compiles separately" ~hit:0 ~miss:1 (h, m);
  let _, h, m = cache_counts (fun () -> ok_exn (Core.Session.query_plan session q1)) in
  expect_cache "q1 still cached" ~hit:1 ~miss:0 (h, m)

let () =
  Alcotest.run "exec"
    [
      ( "physical operators",
        [
          Alcotest.test_case "outer joins and NULL join keys" `Quick test_outer_joins_null_keys;
          Alcotest.test_case "keyless join" `Quick test_keyless_join;
          Alcotest.test_case "indexed point lookup" `Quick test_index_scan;
          Alcotest.test_case "pushdown through projection" `Quick
            test_pushdown_through_projection;
          Alcotest.test_case "pushdown into union" `Quick test_pushdown_union;
          Alcotest.test_case "parallel scan determinism" `Quick
            test_parallel_scan_deterministic;
        ] );
      ( "view unfolding",
        [
          Alcotest.test_case "unfolded paper queries" `Quick test_unfolded_paper_queries;
          Alcotest.test_case "matches client semantics" `Quick
            test_exec_matches_client_semantics;
        ] );
      ("differential", [ prop_random_states; prop_random_models ]);
      ( "plan cache",
        [
          Alcotest.test_case "SMO invalidates, undo/redo restore" `Quick test_plan_cache;
          Alcotest.test_case "cache is per query" `Quick test_plan_cache_per_query;
        ] );
    ]
