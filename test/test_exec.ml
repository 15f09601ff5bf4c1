(* Tests for lib/exec, the physical execution engine: every plan the planner
   produces must evaluate to the same bag of rows as [Query.Eval.rows] on the
   source query — on the paper example (including NULL join keys, outer joins
   and IS OF provenance guards), on random client states, and on random
   models; key filters must reach both inputs of every join kind and turn
   each customer key lookup into index probes; and the session must plan
   against one planner context per state it holds, with undo, redo and
   rollback landing back on planned states, plans equal to a cold
   [Planner.plan], and a size that a stream of distinct reads leaves flat;
   a read that binds its literals into its shape's prepared plan gets the
   cold plan's plan, rows and counts. *)

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
   evaluator on [db]. *)
let check_exec ?(msg = "exec") env db q =
  let plan = ok_exn (Planner.plan env q) in
  let idb = Idb.make env db in
  check_bags msg (Query.Eval.rows env db q) (Run.rows idb plan);
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
      ("inner join", A.Join (Query.Join.Inner, emp, clients, [ "Id" ]));
      ("left outer join", A.Join (Query.Join.Left, emp, clients, [ "Id" ]));
      ("left outer join, null side left", A.Join (Query.Join.Left, clients, emp, [ "Id" ]));
      ("full outer join", A.Join (Query.Join.Full, emp, clients, [ "Id" ]));
      ("full outer join flipped", A.Join (Query.Join.Full, clients, emp, [ "Id" ]));
      ("union all", A.Union_all (A.project_cols [ "Id" ] emp, A.project_cols [ "Id" ] clients));
    ];
  (* the unmatched NULL-keyed right row must actually be in the FOJ output *)
  let foj = A.Join (Query.Join.Full, emp, clients, [ "Id" ]) in
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
    match plan.Plan.root with
    | Plan.Hash_join { spec = { Query.Join.on = []; kind = k }; _ } when k = kind -> ()
    | _ -> Alcotest.failf "expected a keyless hash join, got:@.%s" (Plan.show plan)
  in
  let emp = A.Scan (A.Table "Emp") in
  let cids = A.project_cols [ "Cid"; "Score" ] (A.Scan (A.Table "Client")) in
  let none_of col q = A.Select (C.Cmp (col, C.Eq, V.Int 999), q) in
  let all_null cols rows =
    List.for_all (fun r -> List.for_all (fun c -> V.equal (Datum.Row.get c r) V.Null) cols) rows
  in
  expect_keyless Query.Join.Inner
    (check_exec ~msg:"cross join" env store_db (A.Join (Query.Join.Inner, emp, cids, [])));
  let loj = A.Join (Query.Join.Left, emp, none_of "Cid" cids, []) in
  expect_keyless Query.Join.Left (check_exec ~msg:"keyless left outer join" env store_db loj);
  let rows = Run.rows (Idb.make env store_db) (ok_exn (Planner.plan env loj)) in
  check Alcotest.int "every Emp row once" 2 (List.length rows);
  checkb "every Emp row padded" true (all_null [ "Cid"; "Score" ] rows);
  let foj = A.Join (Query.Join.Full, none_of "Id" emp, cids, []) in
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
  match plan.Plan.root with
  | Plan.Scan { access = Plan.Index_eq { col = "Id"; _ }; proj = Some _; _ } -> ()
  | _ -> Alcotest.failf "expected a fused indexed scan, got:@.%s" (Plan.show plan)

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
        ( Query.Join.Inner,
          A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
            (A.Scan (A.Entity_set "Persons")),
          A.Scan (A.Assoc_set "Supports"),
          [ "Employee.Id" ] ) );
  ]

(* An index probe returns no row whose probed column is NULL, so the planner
   drops [col IS NOT NULL] beside it: the Supports point lookup, whose view
   reads the Client rows with a non-NULL [Eid], probes the [Eid] index of
   Client with no residual filter left. *)
let test_probe_drops_not_null () =
  let q = A.Select (C.Cmp ("Employee.Id", C.Eq, V.Int 4), A.Scan (A.Assoc_set "Supports")) in
  let unfolded = unfold q in
  let rec guards = function
    | A.Select (c, q) -> C.exists_atom (( = ) (C.Is_not_null "Eid")) c || guards q
    | A.Project (_, q) -> guards q
    | _ -> false
  in
  checkb "the view guards Eid IS NOT NULL" true (guards unfolded);
  let plan = check_exec ~msg:"supports point lookup" env store_db unfolded in
  match plan.Plan.root with
  | Plan.Scan { access = Plan.Index_eq { col = "Eid"; _ }; filter = C.True; pred = Plan.Always; _ } -> ()
  | _ -> Alcotest.failf "expected a probe of Client with no filter, got:@.%s" (Plan.show plan)

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
        ( Query.Join.Inner,
          A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
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
              try ignore (check_exec ~msg:(Format.asprintf "%a" A.pp q) env db store_q)
              with Alcotest.Test_error | Failure _ ->
                QCheck.Test.fail_reportf "seed %d: exec mismatch on %a" seed A.pp q))
        queries;
      true

let prop_random_models =
  qtest "exec ≡ Eval.rows on random models" ~count:220
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    run_random_model_case

(* -- differential: key filters through joins -------------------------------- *)

(* Two tables joined on [K1], [K2] or both.  Each side renames the key
   column it does not join on ([K2] -> [K2l] on the left), so only the [on]
   columns are shared.  [K1] and [K2] are foreign keys on both sides, so an
   equality on them can become an index probe. *)
let kf_env =
  let ref_table = Relational.Table.make ~name:"Ref" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ] in
  let side name key payload =
    let fk col =
      { Relational.Table.fk_columns = [ col ]; ref_table = "Ref"; ref_columns = [ "Id" ] }
    in
    Relational.Table.make ~name ~key:[ key ] ~fks:[ fk "K1"; fk "K2" ]
      [ (key, D.Int, `Not_null); ("K1", D.Int, `Null); ("K2", D.Int, `Null);
        (payload, D.Int, `Null) ]
  in
  let store =
    List.fold_left
      (fun s t -> ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [ ref_table; side "L" "Lid" "A"; side "R" "Rid" "B" ]
  in
  Query.Env.make ~client:Edm.Schema.empty ~store

let kf_side table ~on ~suffix =
  A.Project
    (List.map
       (fun c ->
         if List.mem c on || not (List.mem c [ "K1"; "K2" ]) then A.col c
         else A.col_as c (c ^ suffix))
       (A.columns kf_env (A.Scan (A.Table table))),
     A.Scan (A.Table table))

(* Keys and payloads from a small domain with NULL, so rows match, miss
   (a key present on one side only) and carry NULL keys on both sides. *)
let gen_kf_value =
  QCheck.Gen.(frequency [ (1, return V.Null); (4, map (fun n -> V.Int n) (int_range 1 3)) ])

let gen_kf_rows key payload =
  QCheck.Gen.(
    let* n = int_range 0 6 in
    let* vals = list_repeat n (triple gen_kf_value gen_kf_value gen_kf_value) in
    return
      (List.mapi
         (fun i (k1, k2, x) -> row [ (key, V.Int i); ("K1", k1); ("K2", k2); (payload, x) ])
         vals))

(* An atom over the join columns only: any comparison (the constant may be
   absent from both sides, or NULL), IS NULL, IS NOT NULL, or a disjunction
   of two of them. *)
let gen_key_atom on =
  QCheck.Gen.(
    let atom =
      let* col = oneofl on in
      let* op = oneofl [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ] in
      let* v = frequency [ (6, map (fun n -> V.Int n) (int_range 1 4)); (1, return V.Null) ] in
      oneof [ return (C.Cmp (col, op, v)); return (C.Is_null col); return (C.Is_not_null col) ]
    in
    frequency [ (4, atom); (1, map2 (fun a b -> C.Or (a, b)) atom atom) ])

(* An atom that reads a column outside [on]: a payload, a renamed key, or a
   disjunction mixing a join column with one of those. *)
let gen_other_atom on others =
  QCheck.Gen.(
    let other =
      let* col = oneofl others in
      let* v = map (fun n -> V.Int n) (int_range 1 3) in
      oneofl [ C.Cmp (col, C.Eq, v); C.Cmp (col, C.Gt, v); C.Is_null col ]
    in
    frequency [ (2, other); (1, map2 (fun k o -> C.Or (k, o)) (gen_key_atom on) other) ])

type kf_case = {
  kind : Query.Join.kind;
  on : string list;
  conjuncts : C.t list;
  l : Datum.Row.t list;
  r : Datum.Row.t list;
}

let gen_kf_case =
  QCheck.Gen.(
    let* kind = oneofl [ Query.Join.Inner; Query.Join.Left; Query.Join.Full ] in
    let* on = oneofl [ [ "K1" ]; [ "K2" ]; [ "K1"; "K2" ] ] in
    let others =
      [ "A"; "B" ]
      @ List.concat_map
          (fun k -> if List.mem k on then [] else [ k ^ "l"; k ^ "r" ])
          [ "K1"; "K2" ]
    in
    let* keys = list_size (int_range 1 3) (gen_key_atom on) in
    let* rest = list_size (int_range 0 2) (gen_other_atom on others) in
    let* conjuncts = shuffle_l (keys @ rest) in
    let* l = gen_kf_rows "Lid" "A" in
    let* r = gen_kf_rows "Rid" "B" in
    return { kind; on; conjuncts; l; r })

let kf_query c =
  let l = kf_side "L" ~on:c.on ~suffix:"l" and r = kf_side "R" ~on:c.on ~suffix:"r" in
  A.Select (C.conj c.conjuncts, A.Join (c.kind, l, r, c.on))

let arb_kf_case = QCheck.make ~print:(fun c -> Format.asprintf "%a" A.pp (kf_query c)) gen_kf_case

(* Exec agrees with Eval on σf over each join kind, and an equality on a
   join column puts an index probe on both inputs, unless simplification
   folds the filter to FALSE. *)
let prop_key_filter_pushdown =
  qtest "key filters through joins ≡ Eval.rows" ~count:500 arb_kf_case (fun c ->
      let store =
        Relational.Instance.(set_rows ~table:"R" c.r (set_rows ~table:"L" c.l empty))
      in
      let plan = check_exec ~msg:"key filter" kf_env (Query.Eval.store_db store) (kf_query c) in
      let key_eq = function
        | C.Cmp (col, C.Eq, v) -> List.mem col c.on && not (V.is_null v)
        | _ -> false
      in
      if
        List.exists key_eq c.conjuncts
        && Query.Simplify.cond (C.conj c.conjuncts) <> C.False
        && Plan.index_scans plan <> 2
      then
        QCheck.Test.fail_reportf "expected an index probe on both inputs:@.%s" (Plan.show plan);
      true)

(* -- layouts ------------------------------------------------------------------ *)

(* The positional runtime on the cases where a row's slots differ from its
   input's: each query runs through [Run.rows] and is compared with
   [Query.Eval.rows] on tables [L] and [R] of the key-filter schema. *)

let layout_db =
  let l =
    [ [ ("Lid", V.Int 1); ("K1", V.Int 1); ("K2", V.Int 1); ("A", V.Int 10) ];
      [ ("Lid", V.Int 2); ("K1", V.Int 2); ("K2", V.Null); ("A", V.Null) ];
      [ ("Lid", V.Int 3); ("K1", V.Null); ("K2", V.Int 3); ("A", V.Int 30) ];
      [ ("Lid", V.Int 4); ("K1", V.Int 1); ("K2", V.Int 1); ("A", V.Int 40) ] ]
  and r =
    [ [ ("Rid", V.Int 1); ("K1", V.Int 1); ("K2", V.Int 1); ("B", V.Int 100) ];
      [ ("Rid", V.Int 2); ("K1", V.Int 7); ("K2", V.Int 7); ("B", V.Int 700) ];
      [ ("Rid", V.Int 3); ("K1", V.Null); ("K2", V.Int 3); ("B", V.Null) ];
      [ ("Rid", V.Int 4); ("K1", V.Int 2); ("K2", V.Null); ("B", V.Int 200) ] ]
  in
  Query.Eval.store_db
    Relational.Instance.(
      set_rows ~table:"R" (List.map row r) (set_rows ~table:"L" (List.map row l) empty))

let scan_l = A.Scan (A.Table "L") and scan_r = A.Scan (A.Table "R")
let check_layout msg q = check_exec ~msg kf_env layout_db q

(* The join column sits at slot 2 on the left and slot 0 on the right, so a
   right-only row that took its key from the left slot would read NULL. *)
let test_full_join_right_only () =
  let left = A.project_cols [ "Lid"; "A"; "K1" ] scan_l in
  let right = A.project_cols [ "K1"; "B" ] scan_r in
  let q = A.Join (Query.Join.Full, left, right, [ "K1" ]) in
  let rows = Run.rows (Idb.make kf_env layout_db) (check_layout "full outer join" q) in
  checkb "the right-only row keeps its key" true
    (List.exists
       (fun r -> V.equal (Datum.Row.get "K1" r) (V.Int 7) && V.equal (Datum.Row.get "Lid" r) V.Null)
       rows);
  ignore (check_layout "flipped" (A.Join (Query.Join.Full, right, left, [ "K1" ])))

(* Union branches whose columns come in different orders: the right
   branch's rows are permuted into the left branch's layout. *)
let test_append_column_order () =
  let l = A.project_renamed [ ("Lid", "X"); ("A", "Y") ] scan_l in
  let r = A.project_renamed [ ("B", "Y"); ("Rid", "X") ] scan_r in
  ignore (check_layout "X,Y then Y,X" (A.Union_all (l, r)));
  ignore (check_layout "Y,X then X,Y" (A.Union_all (r, l)));
  ignore
    (check_layout "under a join"
       (A.Join
          ( Query.Join.Inner,
            A.Union_all (l, r),
            A.project_renamed [ ("Rid", "X"); ("K2", "Z") ] scan_r,
            [ "X" ] )))

let test_cross_join () =
  let l = A.project_cols [ "Lid"; "A" ] scan_l and r = A.project_cols [ "Rid"; "B" ] scan_r in
  let plan = check_layout "cross join" (A.Join (Query.Join.Inner, l, r, [])) in
  match plan.Plan.root with
  | Plan.Hash_join { spec = { Query.Join.on = []; _ }; _ } -> ()
  | _ -> Alcotest.failf "expected a keyless hash join, got:@.%s" (Plan.show plan)

(* Keys with a NULL in one column of a two-column key, on both sides, for
   every join kind. *)
let test_null_join_keys () =
  let l = A.project_cols [ "Lid"; "K1"; "K2"; "A" ] scan_l
  and r = A.project_cols [ "Rid"; "K1"; "K2"; "B" ] scan_r in
  List.iter
    (fun (msg, q) -> ignore (check_layout msg q))
    [ ("inner", A.Join (Query.Join.Inner, l, r, [ "K1"; "K2" ]));
      ("left", A.Join (Query.Join.Left, l, r, [ "K1"; "K2" ]));
      ("full", A.Join (Query.Join.Full, l, r, [ "K1"; "K2" ]));
      ( "full, one key",
        A.Join
          ( Query.Join.Full,
            A.project_cols [ "Lid"; "K1" ] scan_l,
            A.project_cols [ "Rid"; "K1" ] scan_r,
            [ "K1" ] ) ) ]

(* A row an outer join passes through unmatched stops short of the right
   side's columns, so a later join on one of them reads an absent key: it
   matches nothing, and the outer kinds keep the row as it is. *)
let test_absent_join_keys () =
  let lr =
    A.Join
      ( Query.Join.Left,
        A.project_cols [ "Lid"; "K1" ] scan_l,
        A.project_cols [ "K1"; "B" ] scan_r,
        [ "K1" ] )
  in
  let s = A.project_renamed [ ("B", "B"); ("Rid", "S") ] scan_r in
  List.iter
    (fun (msg, q) -> ignore (check_layout msg q))
    [ ("inner on an absent key", A.Join (Query.Join.Inner, lr, s, [ "B" ]));
      ("left on an absent key", A.Join (Query.Join.Left, lr, s, [ "B" ]));
      ("full on an absent key", A.Join (Query.Join.Full, lr, s, [ "B" ]));
      ("flipped", A.Join (Query.Join.Full, s, lr, [ "B" ])) ];
  let rows =
    Run.rows (Idb.make kf_env layout_db)
      (check_layout "left" (A.Join (Query.Join.Left, lr, s, [ "B" ])))
  in
  checkb "the unmatched row binds its absent columns to NULL" true
    (List.exists
       (fun r ->
         V.equal (Datum.Row.get "Lid" r) (V.Int 3)
         && List.for_all (fun c -> V.equal (Datum.Row.get c r) V.Null) [ "B"; "S" ])
       rows)

(* A projection over a projection that simplification cannot merge (both
   read a COALESCE), so the runtime fuses the two into one slot map:
   COALESCE over a NULL constant, a column and a constant, a column that
   reads the inner COALESCE, and constants, over a scan (whose fused
   projection is the inner one) and over a join. *)
let test_fused_projections () =
  let inner below =
    A.Project
      ( [ A.col_as "A" "X"; A.null_as "N"; A.const (V.Int 5) "F"; A.coalesce [ "K2"; "K1" ] "KK";
          A.col "Lid" ],
        below )
  in
  let outer below =
    A.Project
      ( [ A.coalesce [ "N"; "X"; "F" ] "Z"; A.col_as "KK" "K"; A.const (V.String "k") "C";
          A.col "Lid" ],
        inner below )
  in
  let plan = check_layout "over a scan" (outer scan_l) in
  (match plan.Plan.root with
  | Plan.Project { input = Plan.Scan { proj = Some _; _ }; _ } -> ()
  | _ -> Alcotest.failf "expected a projection over a projecting scan, got:@.%s" (Plan.show plan));
  let joined = A.Join (Query.Join.Inner, scan_l, A.project_cols [ "K1"; "B" ] scan_r, [ "K1" ]) in
  let plan = check_layout "over a join" (outer joined) in
  match plan.Plan.root with
  | Plan.Project { input = Plan.Project { input = Plan.Hash_join _; _ }; _ } -> ()
  | _ -> Alcotest.failf "expected stacked projections over a join, got:@.%s" (Plan.show plan)

(* The planner folds [col = NULL] to FALSE, so the probe is the plan of
   [K1 = 1] with its value replaced by NULL: it returns nothing, as the
   selection does. *)
let test_index_probe_null () =
  let idb = Idb.make kf_env layout_db in
  let plan =
    ok_exn (Planner.plan kf_env (A.project_cols [ "Lid" ] (A.Select (C.Cmp ("K1", C.Eq, V.Int 1), scan_l))))
  in
  let probe =
    match plan.Plan.root with
    | Plan.Scan ({ access = Plan.Index_eq i; _ } as s) ->
        { plan with root = Plan.Scan { s with access = Plan.Index_eq { i with value = Plan.Lit V.Null } } }
    | _ -> Alcotest.failf "expected an index probe, got:@.%s" (Plan.show plan)
  in
  check_bags "NULL probe"
    (Query.Eval.rows kf_env layout_db
       (A.project_cols [ "Lid" ] (A.Select (C.Cmp ("K1", C.Eq, V.Null), scan_l))))
    (Run.rows idb probe);
  check Alcotest.int "NULL probe returns nothing" 0 (List.length (Run.rows idb probe))

(* -- customer key lookups --------------------------------------------------- *)

let customer =
  lazy
    (let env, frags = Workload.Customer.generate () in
     Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile ~validate:false env frags)))

let key_lookup schema set id =
  let root = Option.get (Edm.Schema.set_root schema set) in
  match Edm.Schema.key_of schema root with
  | [ key ] -> A.Select (C.Cmp (key, C.Eq, V.Int id), A.Scan (A.Entity_set set))
  | _ -> Alcotest.failf "%s: composite key" set

(* Every scan of every customer key lookup is an index probe, and the rows
   are [Query.Eval]'s, on the instance the serve benchmark reads. *)
let test_customer_key_lookups () =
  let st = Lazy.force customer in
  let env = st.Core.State.env in
  let schema = env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:300 schema in
  let store = ok_exn (Query.View.apply_update_views env st.Core.State.update_views inst) in
  let db = Query.Eval.store_db store in
  let idb = Idb.make env db in
  let session = Core.Session.start st in
  List.iter
    (fun (set, root) ->
      let key = List.hd (Edm.Schema.key_of schema root) in
      let ids =
        List.filter_map
          (fun (e : Edm.Instance.entity) ->
            match Datum.Row.get key e.Edm.Instance.attrs with V.Int n -> Some n | _ -> None)
          (Edm.Instance.entities inst ~set)
      in
      List.iter
        (fun id ->
          let q = key_lookup schema set id in
          let plan = ok_exn (Core.Session.query_plan session q) in
          let msg = Printf.sprintf "%s key %d" set id in
          check Alcotest.int (msg ^ ": every scan is an index probe") (Plan.scans plan)
            (Plan.index_scans plan);
          let unfolded = ok_exn (Query.Unfold.client_query env st.Core.State.query_views q) in
          check_bags msg (Query.Eval.rows env db unfolded) (Run.rows idb plan))
        [ List.hd ids; List.nth ids (List.length ids / 2); -1 ])
    (Edm.Schema.entity_sets schema)

(* -- reads over the maintained store ------------------------------------------ *)

type request = Read of A.t | Write of Dml.Delta.t

(* A set's first attribute outside its key, if it has one. *)
let non_key_attribute schema set =
  let root = Option.get (Edm.Schema.set_root schema set) in
  let key = Edm.Schema.key_of schema root in
  List.find_opt (fun (a, _) -> not (List.mem a key)) (Edm.Schema.attributes schema root)

(* The key of a set's first entity, if it has one. *)
let first_id schema inst set =
  let root = Option.get (Edm.Schema.set_root schema set) in
  let key = List.hd (Edm.Schema.key_of schema root) in
  match Edm.Instance.entities inst ~set with
  | e :: _ -> (
      match Datum.Row.get key e.Edm.Instance.attrs with
      | V.Int n -> Some n
      | _ -> Alcotest.failf "%s: non-integer key" set)
  | [] -> None

(* The customer IVM handle over 20 entities per set, and a fixed stream in
   [serve]'s shape: a scan of the first association and a lookup of its
   links by their second end, which customer maps to a foreign-key column,
   outside any table's primary key; then per entity set a key lookup and a whole-set scan, a
   write that inserts an entity of the set's root type and updates an
   attribute of its first entity, a key lookup of the new entity and one in
   the next set, which the write left alone. *)
let customer_stream () =
  let st = Lazy.force customer in
  let env = st.Core.State.env in
  let schema = env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 schema in
  let rs = Random.State.make [| 39 |] in
  let sets = Edm.Schema.entity_sets schema in
  let requests =
    List.concat
      (List.mapi
         (fun i (set, root) ->
           let key = List.hd (Edm.Schema.key_of schema root) in
           let id = first_id schema inst set and fresh = 1_000_000 + i in
           let attrs =
             List.map
               (fun (a, dom) ->
                 if a = key then (a, V.Int fresh) else (a, Roundtrip.Generate.value_for rs dom))
               (Edm.Schema.attributes schema root)
           in
           let update =
             match id, non_key_attribute schema set with
             | Some id, Some (a, dom) ->
                 [ Dml.Delta.Update_entity
                     { set; key = Datum.Row.of_list [ (key, V.Int id) ];
                       changes = [ (a, Roundtrip.Generate.value_for rs dom) ] } ]
             | _ -> []
           in
           let next = fst (List.nth sets ((i + 1) mod List.length sets)) in
           let lookup set id = Option.to_list (Option.map (fun id -> Read (key_lookup schema set id)) id) in
           lookup set id
           @ [ Read (A.Scan (A.Entity_set set));
               Write (Dml.Delta.Insert_entity { set; entity = Edm.Instance.entity ~etype:root attrs }
                      :: update);
               Read (key_lookup schema set fresh) ]
           @ lookup next (first_id schema inst next))
         sets)
  in
  let assoc = List.hd (Edm.Schema.associations schema) in
  let links = A.Scan (A.Assoc_set assoc.Edm.Association.name) in
  let end2 = Edm.Association.qualify ~etype:assoc.Edm.Association.end2 "Id" in
  let end2_id =
    match Edm.Instance.links inst ~assoc:assoc.Edm.Association.name with
    | l :: _ -> Datum.Row.get end2 l
    | [] -> Alcotest.fail "the first association has no links"
  in
  let ivm0 = ok_exn (Dml.Translate.ivm_init env st.Core.State.update_views inst) in
  (st, inst, ivm0, Read links :: Read (A.Select (C.Cmp (end2, C.Eq, end2_id), links)) :: requests)

(* The work counters a pass reports: the ones [serve]'s traced run
   requires to repeat. *)
let counted (name, _) =
  List.mem name [ "exec.index.builds"; "exec.index.hits"; "exec.plan.nodes" ]
  || String.starts_with ~prefix:"exec.plan.cache." name
  || String.starts_with ~prefix:"exec.rows." name
  || String.starts_with ~prefix:"ivm.rows." name

(* One pass of [requests] from [ivm0], as [serve] runs it: reads planned
   through a new session of [st] and run on an [Idb] of the current store,
   IVM writes, and a new [Idb] after each write.  Returns the counted
   deltas and each read's rows. *)
let replay st ivm0 requests =
  let env = st.Core.State.env in
  let session = Core.Session.start st in
  let idb_of ivm = Idb.make env (Query.Eval.store_db (Dml.Translate.ivm_store ivm)) in
  let before = Obs.Metric.snapshot () in
  let _, _, reads =
    List.fold_left
      (fun (ivm, idb, reads) -> function
        | Read q -> (ivm, idb, Run.rows idb (ok_exn (Core.Session.query_plan session q)) :: reads)
        | Write delta ->
            let _, ivm = ok_exn (Dml.Translate.ivm_step ivm delta) in
            (ivm, idb_of ivm, reads))
      (ivm0, idb_of ivm0, []) requests
  in
  let d = Obs.Metric.diff before (Obs.Metric.snapshot ()) in
  (List.filter counted d.Obs.Metric.counters, List.rev reads)

(* Both passes of a traced [serve] run start from one IVM handle, and the
   second must count the first's work: a store table may keep its value
   arrays across passes, but not anything a counter sees, such as its
   indexes, or the prepared plans of the session's planner context, which
   each pass's new session builds afresh. *)
let test_passes_repeat () =
  let st, _, ivm0, requests = customer_stream () in
  let counts1, reads1 = replay st ivm0 requests in
  let counts2, reads2 = replay st ivm0 requests in
  check Alcotest.(list (pair string int)) "the second pass counts the first's work" counts1 counts2;
  checkb "the same rows" true (List.equal bag_equal reads1 reads2);
  List.iter
    (fun name ->
      checkb (name ^ " counted") true
        (match List.assoc_opt name counts1 with Some n -> n > 0 | None -> false))
    [ "exec.index.builds"; "exec.index.hits"; "exec.rows.scanned"; "ivm.rows.scan";
      "exec.plan.cache.hit"; "exec.plan.cache.miss"; "exec.plan.nodes" ]

(* Primary-key probes over the maintained store read the tables' key maps:
   the stream's key lookups and writes, each write followed by a new [Idb],
   count index hits on every table a lookup reaches and build no index. *)
let test_key_probes_build_nothing () =
  let st, _, ivm0, requests = customer_stream () in
  let keyed =
    List.filter
      (function
        | Read (A.Select (C.Cmp (_, C.Eq, _), A.Scan (A.Entity_set _))) | Write _ -> true
        | Read _ -> false)
      requests
  in
  let counts, _ = replay st ivm0 keyed in
  let count name = Option.value ~default:0 (List.assoc_opt name counts) in
  check Alcotest.int "exec.index.builds" 0 (count "exec.index.builds");
  checkb "exec.index.hits counted" true (count "exec.index.hits" > 0)

(* After every write of the customer stream, an [Idb] over the maintained
   store answers every full scan and column probe as one over the store
   the update views give for the client state ([Store_reads]). *)
let test_store_reads_after_steps () =
  let st, inst, ivm0, requests = customer_stream () in
  let env = st.Core.State.env and uv = st.Core.State.update_views in
  let check msg client ivm =
    Store_reads.check env uv ~client (Dml.Translate.ivm_store ivm) ~fail:(fun e ->
        Alcotest.failf "%s: %s" msg e)
  in
  check "init" inst ivm0;
  ignore
    (List.fold_left
       (fun (k, client, ivm) -> function
         | Read _ -> (k, client, ivm)
         | Write delta ->
             let client = ok_exn (Dml.Delta.apply env.Query.Env.client client delta) in
             let _, ivm = ok_exn (Dml.Translate.ivm_step ivm delta) in
             check (Printf.sprintf "after write %d" k) client ivm;
             (k + 1, client, ivm))
       (0, inst, ivm0) requests)

(* An [Idb] over the store after IVM steps answers every customer key
   lookup and set scan as [Query.Eval.rows] does.  Each store is read
   before the next step, so the tables a step leaves alone enter the next
   [Idb] with the arrays converted for the last one, and do so [==]. *)
let test_reads_after_steps () =
  let st, inst, ivm0, requests = customer_stream () in
  let env = st.Core.State.env in
  let schema = env.Query.Env.client in
  let session = Core.Session.start st in
  let reads =
    List.concat
      (List.mapi
         (fun i (set, _) ->
           [ A.Scan (A.Entity_set set); key_lookup schema set (1_000_000 + i) ]
           @ Option.to_list (Option.map (key_lookup schema set) (first_id schema inst set)))
         (Edm.Schema.entity_sets schema))
  in
  let check_reads msg ivm =
    let db = Query.Eval.store_db (Dml.Translate.ivm_store ivm) in
    let idb = Idb.make env db in
    List.iter
      (fun q ->
        let unfolded = ok_exn (Query.Unfold.client_query env st.Core.State.query_views q) in
        check_bags (Format.asprintf "%s: %a" msg A.pp q) (Query.Eval.rows env db unfolded)
          (Run.rows idb (ok_exn (Core.Session.query_plan session q))))
      reads
  in
  let values store table =
    Relational.Instance.values store ~table (Idb.scan_layout env (A.Table table))
  in
  check_reads "before the steps" ivm0;
  let writes = List.filter_map (function Write d -> Some d | Read _ -> None) requests in
  ignore
    (List.fold_left
       (fun (k, ivm) delta ->
         let _, ivm' = ok_exn (Dml.Translate.ivm_step ivm delta) in
         let old_store = Dml.Translate.ivm_store ivm and store = Dml.Translate.ivm_store ivm' in
         List.iter
           (fun t ->
             if Relational.Instance.rows old_store ~table:t == Relational.Instance.rows store ~table:t
             then
               checkb (Printf.sprintf "step %d: %s keeps its arrays" k t) true
                 (values old_store t == values store t))
           (Relational.Instance.tables store);
         if k = 0 || k = List.length writes - 1 then
           check_reads (Printf.sprintf "after step %d" k) ivm';
         (k + 1, ivm'))
       (0, ivm0) writes)

(* -- the tree lowering as oracle ---------------------------------------------- *)

(* [plan], its parameters resolved to their arguments, is the plan
   [Lower_tree] lowers [q] to: the same root and order, and an equal
   template. *)
let check_oracle msg env q (plan : Plan.t) =
  let plan = Lower_tree.resolve plan in
  let tree = ok_exn (Lower_tree.plan env q) in
  if
    not
      (plan.Plan.root = tree.Plan.root && plan.Plan.order = tree.Plan.order
      && Datum.Row.equal plan.Plan.template tree.Plan.template)
  then
    Alcotest.failf "%s: the planner's plan differs from the tree lowering's:@.%s@.tree:@.%s" msg
      (Plan.show plan) (Plan.show tree)

(* Each client query read through one session of [st], against the tree
   lowering of its unfolding; a query that does not unfold is skipped. *)
let check_reads msg st queries =
  let env = st.Core.State.env in
  let session = Core.Session.start st in
  List.iter
    (fun q ->
      match Query.Unfold.client_query env st.Core.State.query_views q with
      | Error _ -> ()
      | Ok unfolded ->
          check_oracle (Format.asprintf "%s: %a" msg A.pp q) env unfolded
            (ok_exn (Core.Session.query_plan session q)))
    queries

let value_of = function
  | D.Int -> V.Int 1
  | D.String | D.Enum _ -> V.String "a"
  | D.Bool -> V.Bool true
  | D.Decimal -> V.Decimal 1.0

(* A whole-set scan, a key lookup, a filter on an attribute outside the
   key, and an [IS OF] filter on the set's last type. *)
let set_reads schema set =
  let scan = A.Scan (A.Entity_set set) in
  let root = Option.get (Edm.Schema.set_root schema set) in
  let key = List.hd (Edm.Schema.key_of schema root) in
  let last = List.hd (List.rev (Edm.Schema.subtypes schema root)) in
  [ scan; A.Select (C.Cmp (key, C.Eq, V.Int 7), scan); A.Select (C.Is_of last, scan) ]
  @ (match non_key_attribute schema set with
    | Some (a, d) -> [ A.Select (C.Cmp (a, C.Eq, value_of d), scan) ]
    | None -> [])

(* Key filters as [prop_key_filter_pushdown] draws them: [Planner.plan] of
   the whole query, and [plan_in] of the second half of the conjuncts over
   a view that applies the first half to the join, below a projection that
   reverses its columns (so simplification keeps the two selections apart),
   where both halves meet in the same scans and residual filters. *)
let check_key_filters () =
  let rand = Random.State.make [| 38 |] in
  List.iteri
    (fun i c ->
      let msg = Printf.sprintf "key filter %d" i in
      let q = kf_query c in
      check_oracle msg kf_env q (ok_exn (Planner.plan kf_env q));
      let join = match q with A.Select (_, join) -> join | q -> q in
      let own = List.filteri (fun k _ -> 2 * k < List.length c.conjuncts) c.conjuncts
      and pushed = List.filteri (fun k _ -> 2 * k >= List.length c.conjuncts) c.conjuncts in
      let view =
        A.project_cols (List.rev (ok_exn (A.infer kf_env join))) (A.Select (C.conj own, join))
      in
      let q = A.Select (C.conj pushed, view) in
      check_oracle (msg ^ " over a view") kf_env q
        (ok_exn (Planner.plan_in (Planner.context kf_env [ view ]) q)))
    (QCheck.Gen.generate ~rand ~n:300 gen_kf_case)

(* Every table plan IVM compiles, against the tree lowering of its view. *)
let check_update_views msg env uv =
  let views = Query.View.update_view_bindings uv in
  List.iter
    (fun (tp : Ivm.Plan.table_plan) ->
      check_oracle (msg ^ ": " ^ tp.Ivm.Plan.table) env (List.assoc tp.Ivm.Plan.table views)
        tp.Ivm.Plan.root)
    (ok_exn (Ivm.Plan.compile env uv)).Ivm.Plan.tables

let compiled_state env frags =
  Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile ~validate:false env frags))

(* The planner memoizes each view node's plan and pushes a query's filters
   down it; the plans are the ones lowering each query afresh gives. *)
let test_tree_lowering () =
  let st = Lazy.force customer in
  let schema = st.Core.State.env.Query.Env.client in
  check_reads "customer" st
    (List.concat_map (fun (set, _) -> set_reads schema set) (Edm.Schema.entity_sets schema));
  let paper = Core.State.of_compiled env P.stage4.P.fragments (Lazy.force compiled) in
  let ci =
    List.map
      (fun text -> ok_exn (Surface.Parser.query env text))
      [ "select Id, Name from Persons where is of Employee";
        "select Id, Name from Persons where Id = 4"; "select * from Supports" ]
  in
  check_reads "paper stage 4" paper
    (List.map snd (paper_client_queries @ client_facing_queries) @ ci);
  for seed = 0 to 29 do
    let renv, frags = Workload.Random_model.generate ~profile ~seed () in
    let rschema = renv.Query.Env.client in
    check_reads (Printf.sprintf "seed %d" seed) (compiled_state renv frags)
      (List.concat_map (fun (set, _) -> set_reads rschema set) (Edm.Schema.entity_sets rschema)
      @ List.map
          (fun (a : Edm.Association.t) -> A.Scan (A.Assoc_set a.Edm.Association.name))
          (Edm.Schema.associations rschema))
  done;
  check_key_filters ();
  check_update_views "paper" env (uv ());
  let cenv, cfrags = Workload.Chain.generate ~size:10 in
  check_update_views "chain-10" cenv (compiled_state cenv cfrags).Core.State.update_views;
  check_update_views "customer" st.Core.State.env st.Core.State.update_views

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

(* The planner contexts [f] builds: its [exec.plan.context] spans. *)
let contexts_built f =
  Obs.Span.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable f in
  let n =
    Obs.Span.fold_all
      (fun n sp -> if Obs.Span.name sp = "exec.plan.context" then n + 1 else n)
      0
  in
  Obs.Span.reset ();
  (r, n)

let expect_contexts msg n got = check Alcotest.int (msg ^ ": contexts built") n got

(* The plan a cold one-shot [Planner.plan] gives for [q] over [st]. *)
let cold_plan st q =
  let env = st.Core.State.env in
  ok_exn (Planner.plan env (ok_exn (Query.Unfold.client_query env st.Core.State.query_views q)))

let check_cold msg s q plan =
  check Alcotest.string (msg ^ ": agrees with a cold plan")
    (Plan.show (cold_plan (Core.Session.current s) q))
    (Plan.show plan)

(* Each state the session holds gets one planner context, on its first
   read; repeat reads, undo, redo and rollback build none. *)
let test_plan_cache () =
  let s1 = Workload.Paper_example.stage1 in
  let st = ok_exn (Core.State.bootstrap s1.P.env s1.P.fragments) in
  let session = Core.Session.checkpoint ~name:"start" (Core.Session.start st) in
  let q = A.Scan (A.Entity_set "Persons") in
  let query msg s =
    let plan, n = contexts_built (fun () -> ok_exn (Core.Session.query_plan s q)) in
    check_cold msg s q plan;
    (plan, n)
  in
  let plan0, n = query "first read" session in
  expect_contexts "first read" 1 n;
  let _, n = query "repeat" session in
  expect_contexts "repeat reuses the state's context" 0 n;
  (* an SMO moves the query views: a new state, a new context *)
  let session' = ok_v (Core.Session.apply session employee_smo) in
  let plan1, n = query "after SMO" session' in
  expect_contexts "after SMO" 1 n;
  checkb "planned against the new views" false (Plan.show plan0 = Plan.show plan1);
  (* undo returns to the old state, still planned *)
  let undone =
    match Core.Session.undo session' with
    | Some s -> s
    | None -> Alcotest.fail "undo failed"
  in
  let _, n = query "after undo" undone in
  expect_contexts "after undo" 0 n;
  (* redo lands back on the post-SMO state *)
  let redone =
    match Core.Session.redo undone with
    | Some s -> s
    | None -> Alcotest.fail "redo failed"
  in
  let _, n = query "after redo" redone in
  expect_contexts "after redo" 0 n;
  (* and rollback on the checkpointed one *)
  let rolled = ok_exn (Core.Session.rollback_to ~name:"start" redone) in
  let _, n = query "after rollback" rolled in
  expect_contexts "after rollback" 0 n

let test_one_context_per_state () =
  let s1 = Workload.Paper_example.stage1 in
  let st = ok_exn (Core.State.bootstrap s1.P.env s1.P.fragments) in
  let session = Core.Session.start st in
  let q1 = A.Scan (A.Entity_set "Persons") in
  let q2 = A.project_cols [ "Id" ] (A.Scan (A.Entity_set "Persons")) in
  let read msg q =
    let plan, n = contexts_built (fun () -> ok_exn (Core.Session.query_plan session q)) in
    check_cold msg session q plan;
    (plan, n)
  in
  let p1, n = read "q1" q1 in
  expect_contexts "q1 builds the state's context" 1 n;
  let p2, n = read "q2" q2 in
  expect_contexts "q2 reuses it" 0 n;
  checkb "each query its own plan" false (Plan.show p1 = Plan.show p2);
  let _, n = read "q1 again" q1 in
  expect_contexts "q1 reuses it" 0 n

(* Distinct point reads leave the session's size flat: the planner context
   holds view nodes and one prepared plan per shape (18 here), never a plan
   per literal. *)
let test_plan_memory_flat () =
  let st = Lazy.force customer in
  let schema = st.Core.State.env.Query.Env.client in
  let sets = Array.of_list (List.map fst (Edm.Schema.entity_sets schema)) in
  let session = Core.Session.start st in
  let read i =
    let set = sets.(i mod Array.length sets) in
    ignore (ok_exn (Core.Session.query_plan session (key_lookup schema set i)))
  in
  read 0;
  let words () = Obj.reachable_words (Obj.repr session) in
  let w0 = words () in
  for i = 1 to 10_000 do read i done;
  let grown_mb = float_of_int (words () - w0) *. float_of_int (Sys.word_size / 8) /. 1e6 in
  if grown_mb > 0.25 then Alcotest.failf "session grew by %.2f MB over 10,000 reads" grown_mb

(* Minor words [f ()] allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* Typing a customer Set1 scan reads the schema's hierarchy index: a warm
   [infer] allocates the column list (97 names) and little else, at most
   700 minor words (3,482 when each call walked the hierarchy and sorted
   every declared name). *)
let test_scan_typing_lean () =
  let st = Lazy.force customer in
  let env = st.Core.State.env in
  let scan = A.Scan (A.Entity_set "Set1") in
  let cols = ok_exn (A.infer env scan) in
  check Alcotest.int "Set1 scans 97 columns" 97 (List.length cols);
  let words = minor_words (fun () -> A.infer env scan) in
  if words > 700. then Alcotest.failf "typing a Set1 scan allocated %.0f minor words" words

(* Every suite AEP declares Bucket under the hierarchy's target, so from
   the second on Bucket is a namesake: AddEntity types P's view and every
   ancestor's Set1 join chain to find it, and those typings share each
   left input's column list.  A warm validated AEP-2p on the state after
   AEP-1p allocates at most 0.5 MB (0.62 MB when each join copied its left
   list). *)
let test_namesake_aep_lean () =
  let st = Lazy.force customer in
  let suite = Workload.Customer.smo_suite () in
  let st1 = ok_v (Core.Engine.apply st (List.assoc "AEP-1p" suite)) in
  let apply () = ok_v (Core.Engine.apply st1 (List.assoc "AEP-2p" suite)) in
  ignore (apply ());
  let mb = minor_words apply *. float_of_int (Sys.word_size / 8) /. 1e6 in
  if mb > 0.5 then Alcotest.failf "AEP-2p after AEP-1p allocated %.3f MB" mb

(* AE-TPH's overlap obligations carry suspended names and messages, so an
   application that proves nothing renders no fragment: a warm apply of the
   customer suite's AE-TPH allocates at most 0.5 MB (1.31 MB when both
   strings were printed for every set fragment on the table). *)
let test_tph_apply_lean () =
  let st = Lazy.force customer in
  match List.assoc "AE-TPH" (Workload.Customer.smo_suite ()) with
  | Core.Smo.Add_entity_tph { entity; table; fmap; discriminator } ->
      let apply () = ok_v (Core.Add_entity_tph.apply st ~entity ~table ~fmap ~discriminator) in
      ignore (apply ());
      let mb = minor_words apply *. float_of_int (Sys.word_size / 8) /. 1e6 in
      if mb > 0.5 then Alcotest.failf "one AE-TPH apply allocated %.2f MB" mb
  | _ -> Alcotest.fail "the suite's AE-TPH is not an Add_entity_tph"

(* Plans share the context's view plans: two whole-set reads of Set1
   return one plan, and a filter on a root attribute of Set1, once AE-TPT
   has put a left outer join over its chain, sinks into the left input of
   each join it passes and leaves every right input the view plan's own
   node. *)
let test_plan_sharing () =
  let st = Lazy.force customer in
  let session = Core.Session.start st in
  let scan = A.Scan (A.Entity_set "Set1") in
  let read session q = ok_exn (Core.Session.query_plan session q) in
  checkb "two whole-set reads share one plan" true
    ((read session scan).Plan.root == (read session scan).Plan.root);
  let st = ok_v (Core.Engine.apply st (List.assoc "AE-TPT" (Workload.Customer.smo_suite ()))) in
  let session = Core.Session.start st in
  let schema = st.Core.State.env.Query.Env.client in
  let a, d = Option.get (non_key_attribute schema "Set1") in
  let view = (read session scan).Plan.root in
  let filtered = (read session (A.Select (C.Cmp (a, C.Eq, value_of d), scan))).Plan.root in
  let rec nodes acc node =
    let acc = node :: acc in
    match node with
    | Plan.Scan _ -> acc
    | Plan.Filter { input; _ } | Plan.Project { input; _ } -> nodes acc input
    | Plan.Hash_join { left; right; _ } | Plan.Append { left; right; _ } ->
        nodes (nodes acc left) right
  in
  let shared = nodes [] view in
  let rec joins node =
    match node with
    | Plan.Scan _ -> []
    | Plan.Filter { input; _ } | Plan.Project { input; _ } -> joins input
    | Plan.Hash_join { left; right; _ } -> node :: (joins left @ joins right)
    | Plan.Append { left; right; _ } -> joins left @ joins right
  in
  let rebuilt = List.filter (fun j -> not (List.memq j shared)) (joins filtered) in
  checkb "the filter sinks into a left outer join's left input" true
    (List.exists
       (function Plan.Hash_join { spec; _ } -> spec.Query.Join.kind = Query.Join.Left | _ -> false)
       rebuilt);
  List.iter
    (function
      | Plan.Hash_join { right; _ } ->
          checkb "each join's right input is the view plan's" true (List.memq right shared)
      | _ -> ())
    rebuilt

(* -- prepared reads ------------------------------------------------------------- *)

let c_hit = Obs.Metric.counter "exec.plan.cache.hit"
let c_nodes = Obs.Metric.counter "exec.plan.nodes"

(* [f ()] and the deltas of the counters [keep] names. *)
let deltas keep f =
  let before = Obs.Metric.snapshot () in
  let r = f () in
  let d = Obs.Metric.diff before (Obs.Metric.snapshot ()) in
  (r, List.filter (fun (name, _) -> keep name) d.Obs.Metric.counters)

let run_counter name =
  String.starts_with ~prefix:"exec.rows." name || String.starts_with ~prefix:"exec.index." name

(* [got] against [cold], the plan of the same read planned afresh: the same
   plan ([Plan.show]) or the same [Error], and, each run on a new [Idb] over
   [db], the same rows in the same order and the same [exec.rows.*] and
   [exec.index.*] deltas. *)
let check_against_cold msg env db got cold =
  match (got, cold) with
  | Error e, Error e' -> check Alcotest.string (msg ^ ": the cold plan's error") e' e
  | Ok p, Ok c ->
      check Alcotest.string (msg ^ ": the cold plan") (Plan.show c) (Plan.show p);
      let run plan = deltas run_counter (fun () -> Run.rows (Idb.make env db) plan) in
      let rows, counts = run p and cold_rows, cold_counts = run c in
      checkb (msg ^ ": the cold plan's rows, in order") true (List.equal Datum.Row.equal cold_rows rows);
      check Alcotest.(list (pair string int)) (msg ^ ": the cold plan's counts") cold_counts counts
  | Ok _, Error e -> Alcotest.failf "%s: planned, but the cold plan fails: %s" msg e
  | Error e, Ok _ -> Alcotest.failf "%s: fails (%s), but the cold plan does not" msg e

(* [q] with each non-NULL comparison literal replaced by a placeholder of
   its domain: reads that differ only in such literals share a shape. *)
let shape =
  A.map_conditions
    (C.map_atoms (function
      | C.Cmp (a, op, v) when not (V.is_null v) ->
          let placeholder =
            match v with
            | V.Int _ -> V.Int 0
            | V.String _ -> V.String ""
            | V.Bool _ -> V.Bool false
            | V.Decimal _ -> V.Decimal 0.
            | V.Null -> V.Null
          in
          C.Cmp (a, op, placeholder)
      | atom -> atom))

(* Reads [queries] in order through one session of [st], each against a
   cold [Planner.plan] of its unfolding, and returns the reads that bound
   a prepared plan.  A read that binds builds no plan node: its root is
   the root of the plan its shape's first read got. *)
let check_prepared msg st db queries =
  let env = st.Core.State.env in
  let session = Core.Session.start st in
  let roots = ref [] in
  List.filter
    (fun q ->
      let msg = Format.asprintf "%s: %a" msg A.pp q in
      let h = Obs.Metric.value c_hit and n = Obs.Metric.value c_nodes in
      let got = Core.Session.query_plan session q in
      let hit = Obs.Metric.value c_hit > h and built = Obs.Metric.value c_nodes - n in
      let cold =
        Result.bind (Query.Unfold.client_query env st.Core.State.query_views q) (Planner.plan env)
      in
      check_against_cold msg env db got cold;
      (match (got, List.find_opt (fun (s, _) -> A.equal s (shape q)) !roots) with
      | Ok p, Some (_, root) when hit ->
          check Alcotest.int (msg ^ ": plan nodes a binding read builds") 0 built;
          checkb (msg ^ ": the prepared root") true (p.Plan.root == root)
      | _, Some _ -> ()
      | _, None when hit -> Alcotest.failf "%s: binds at its shape's first read" msg
      | Ok p, None -> roots := (shape q, p.Plan.root) :: !roots
      | Error _, None -> ());
      hit)
    queries

let state_db st inst =
  let env = st.Core.State.env in
  Query.Eval.store_db (ok_exn (Query.View.apply_update_views env st.Core.State.update_views inst))

(* The values of [a] in [set]'s entities, distinct, in order, at most [n]. *)
let attribute_values inst set a n =
  List.fold_left
    (fun acc (e : Edm.Instance.entity) ->
      match Datum.Row.find a e.Edm.Instance.attrs with
      | Some v when (not (V.is_null v)) && List.length acc < n && not (List.mem v acc) -> acc @ [ v ]
      | _ -> acc)
    [] (Edm.Instance.entities inst ~set)

(* Per set: key lookups at up to [keys] present keys and at absent ones, to
   [keys + absent] literals; and per attribute of the root outside the key,
   a filter at up to [values] of its values and at [value_of] its domain. *)
let literal_reads schema inst ~keys ~absent ~values =
  List.concat_map
    (fun (set, root) ->
      let scan = A.Scan (A.Entity_set set) in
      let key = List.hd (Edm.Schema.key_of schema root) in
      let present = attribute_values inst set key keys in
      let lookups =
        present @ List.init (keys + absent - List.length present) (fun k -> V.Int (1_000_000 + k))
      in
      List.map (fun v -> A.Select (C.Cmp (key, C.Eq, v), scan)) lookups
      @ List.concat_map
          (fun (a, d) ->
            if a = key then []
            else
              List.map
                (fun v -> A.Select (C.Cmp (a, C.Eq, v), scan))
                (attribute_values inst set a values @ [ value_of d ]))
          (Edm.Schema.attributes schema root))
    (Edm.Schema.entity_sets schema)

let literal_kind = function
  | A.Select (C.Cmp (_, _, V.Int _), _) -> "int"
  | A.Select (C.Cmp (_, _, V.String _), _) -> "string"
  | A.Select (C.Cmp (_, _, V.Decimal _), _) -> "decimal"
  | A.Select (C.Cmp (_, _, V.Bool _), _) -> "bool"
  | _ -> "other"

(* Every read after the first of a shape binds its literals into the
   shape's prepared plan, and gets the plan, the rows and the counts of a
   cold plan: every customer set's key lookup at 50 literals and its
   attribute filters (string literals), and the same reads on random
   models 0-29 (decimal literals among them). *)
let test_prepared_equals_cold () =
  let st = Lazy.force customer in
  let schema = st.Core.State.env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 schema in
  let reads = literal_reads schema inst ~keys:20 ~absent:30 ~values:4 in
  let hits = check_prepared "customer" st (state_db st inst) reads in
  let sets = List.length (Edm.Schema.entity_sets schema) in
  checkb "customer: every key lookup after a set's first binds" true
    (List.length (List.filter (fun q -> literal_kind q = "int") hits) = sets * 49);
  checkb "customer: string literals bind" true (List.exists (fun q -> literal_kind q = "string") hits);
  let kinds = ref [] in
  for seed = 0 to 29 do
    let renv, frags = Workload.Random_model.generate ~profile ~seed () in
    let rschema = renv.Query.Env.client in
    let rst = compiled_state renv frags in
    let rinst = Roundtrip.Generate.instance ~seed ~entities_per_set:5 rschema in
    let hits =
      check_prepared (Printf.sprintf "seed %d" seed) rst (state_db rst rinst)
        (literal_reads rschema rinst ~keys:3 ~absent:2 ~values:2)
    in
    kinds := List.map literal_kind hits @ !kinds
  done;
  List.iter
    (fun kind -> checkb ("random models: " ^ kind ^ " literals bind") true (List.mem kind !kinds))
    [ "int"; "string"; "decimal" ]

(* Literals outside key lookups: residual filters with [<], [>=] and
   [<>], and an AND and an OR of literals on the key and an attribute
   outside it, on a TPT, a TPH and a TPC set, read through one session at
   four literal pairs, each against a cold plan. *)
let test_prepared_comparisons () =
  let st = Lazy.force customer in
  let schema = st.Core.State.env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 schema in
  let reads =
    List.concat_map
      (fun set ->
        let scan = A.Scan (A.Entity_set set) in
        let key = List.hd (Edm.Schema.key_of schema (Option.get (Edm.Schema.set_root schema set))) in
        let a, _ = Option.get (non_key_attribute schema set) in
        let pairs = List.combine (attribute_values inst set key 4) (attribute_values inst set a 4) in
        let cmp col op v = C.Cmp (col, op, v) in
        List.concat_map
          (fun (k, v) ->
            List.map
              (fun c -> A.Select (c, scan))
              [ cmp key C.Lt k; cmp key C.Ge k; cmp a C.Neq v; C.And (cmp key C.Ge k, cmp a C.Neq v);
                C.Or (cmp key C.Lt k, cmp a C.Eq v) ])
          pairs)
      [ "Set1"; "Set2"; "Set4" ]
  in
  checkb "four literal pairs per set" true (List.length reads = 3 * 4 * 5);
  let hits = check_prepared "comparisons" st (state_db st inst) reads in
  check Alcotest.int "every read after its shape's first binds" (3 * 3 * 5) (List.length hits)

(* Reads whose shape must plan as a cold plan does: a NULL literal, kept
   in the shape; a literal of another domain than its column's, and one on
   an absent column (the same [Error]); and nested selections on one
   column, at equal and at different literals, whose simplification folds
   by value.  Each read again, in another order. *)
let test_prepared_guards () =
  let st = Lazy.force customer in
  let schema = st.Core.State.env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 schema in
  let db = state_db st inst in
  let set = "Set2" in
  let scan = A.Scan (A.Entity_set set) in
  let key = List.hd (Edm.Schema.key_of schema (Option.get (Edm.Schema.set_root schema set))) in
  let a, _ = Option.get (non_key_attribute schema set) in
  let id = match attribute_values inst set key 1 with [ v ] -> v | _ -> Alcotest.fail "no entity" in
  let other = V.Int 1_000_000 in
  let sel col v q = A.Select (C.Cmp (col, C.Eq, v), q) in
  let reads =
    [ sel a V.Null scan; sel a (V.String "a") scan; sel key V.Null scan; sel key id scan;
      sel key (V.String "7") scan; sel key (V.Decimal 7.) scan; sel key (V.Int 7) scan;
      sel "NoSuchColumn" (V.Int 1) scan; sel "NoSuchColumn" (V.Int 2) scan;
      sel key id (sel key id scan); sel key id (sel key other scan); sel key other (sel key other scan);
      sel key other (sel key id scan); sel a (V.String "a") (sel a (V.String "b") scan);
      sel a (V.String "b") (sel a (V.String "b") scan);
      A.Select (C.And (C.Cmp (key, C.Eq, id), C.Cmp (key, C.Eq, other)), scan);
      A.Select (C.And (C.Cmp (key, C.Eq, id), C.Cmp (key, C.Eq, id)), scan);
      A.Select (C.Or (C.Cmp (key, C.Eq, id), C.Cmp (key, C.Eq, id)), scan);
      A.Select (C.Or (C.Cmp (key, C.Eq, other), C.Cmp (key, C.Eq, id)), scan);
      A.Select (C.And (C.Cmp (key, C.Eq, id), C.Is_null key), scan) ]
  in
  ignore (check_prepared "guards" st db (reads @ List.rev reads @ reads))

(* A literal merged into a view whose root is a selection: the view's
   condition and the literal meet in one condition, so the shape plans as
   a cold plan does at equal and at different literals. *)
let test_prepared_view_selection () =
  let view = A.Select (C.Cmp ("Cid", C.Eq, V.Int 6), A.Scan (A.Table "Client")) in
  let client = A.Scan (A.Table "Client") in
  let rec unfold q =
    match q with
    | A.Scan _ -> if A.equal q client then view else q
    | A.Select (c, q) -> A.Select (c, unfold q)
    | A.Project (items, q) -> A.Project (items, unfold q)
    | q -> q
  in
  let ctx = Planner.context env [ view ] in
  List.iter
    (fun v ->
      let q = A.Select (C.Cmp ("Cid", C.Eq, V.Int v), client) in
      check_against_cold (Format.asprintf "%a" A.pp q) env store_db
        (Planner.plan_read ctx ~unfold:(fun q -> Ok (unfold q)) q)
        (Planner.plan env (unfold q)))
    [ 6; 5; 6; 6; 5; 5 ]

(* A stream of 10,000 distinct shapes leaves at most [prepared_cap] of them
   in the context, and a shape read again afterwards still binds. *)
let test_prepared_cap () =
  let qv = qv () in
  let ctx = Planner.context env (Query.View.queries qv Query.View.no_update_views) in
  let unfold = Query.Unfold.splice env qv in
  let read i =
    ok_exn
      (Planner.plan_read ctx ~unfold
         (A.Project
            ( [ A.col "Id"; A.const (V.Int i) "k" ],
              A.Select (C.Cmp ("Id", C.Eq, V.Int i), A.Scan (A.Entity_set "Persons")) )))
  in
  for i = 1 to 10_000 do
    ignore (read i);
    if Planner.prepared ctx > Planner.prepared_cap then
      Alcotest.failf "%d shapes kept after %d reads, over the cap of %d" (Planner.prepared ctx) i
        Planner.prepared_cap
  done;
  let q = A.Select (C.Cmp ("Id", C.Eq, V.Int 4), A.Scan (A.Entity_set "Persons")) in
  ignore (ok_exn (Planner.plan_read ctx ~unfold q));
  let h = Obs.Metric.value c_hit in
  let plan = ok_exn (Planner.plan_read ctx ~unfold q) in
  checkb "a shape read again binds" true (Obs.Metric.value c_hit = h + 1);
  check Alcotest.string "the cold plan" (Plan.show (ok_exn (Planner.plan env (ok_exn (unfold q)))))
    (Plan.show plan)

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
        ] );
      ( "view unfolding",
        [
          Alcotest.test_case "unfolded paper queries" `Quick test_unfolded_paper_queries;
          Alcotest.test_case "index probe drops IS NOT NULL" `Quick test_probe_drops_not_null;
          Alcotest.test_case "matches client semantics" `Quick
            test_exec_matches_client_semantics;
        ] );
      ("differential", [ prop_random_states; prop_random_models; prop_key_filter_pushdown ]);
      ( "layouts",
        [
          Alcotest.test_case "full outer join right-only rows" `Quick test_full_join_right_only;
          Alcotest.test_case "union of differently ordered branches" `Quick
            test_append_column_order;
          Alcotest.test_case "keyless cross join" `Quick test_cross_join;
          Alcotest.test_case "NULL join keys" `Quick test_null_join_keys;
          Alcotest.test_case "absent join keys" `Quick test_absent_join_keys;
          Alcotest.test_case "fused projections" `Quick test_fused_projections;
          Alcotest.test_case "index probe with NULL" `Quick test_index_probe_null;
        ] );
      ( "key lookups",
        [ Alcotest.test_case "customer lookups probe indexes" `Quick test_customer_key_lookups ] );
      ( "maintained store",
        [
          Alcotest.test_case "passes from one handle repeat their counts" `Quick test_passes_repeat;
          Alcotest.test_case "reads after IVM steps" `Quick test_reads_after_steps;
          Alcotest.test_case "key probes build no index" `Quick test_key_probes_build_nothing;
          Alcotest.test_case "reads ≡ reads of the update views' store" `Quick
            test_store_reads_after_steps;
        ] );
      ("oracle", [ Alcotest.test_case "plans equal the tree lowering" `Quick test_tree_lowering ]);
      ( "prepared reads",
        [
          Alcotest.test_case "prepared plans equal cold plans" `Quick test_prepared_equals_cold;
          Alcotest.test_case "comparisons, AND and OR bind" `Quick test_prepared_comparisons;
          Alcotest.test_case "guarded shapes plan cold" `Quick test_prepared_guards;
          Alcotest.test_case "a literal merged into a view's selection" `Quick
            test_prepared_view_selection;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "SMO invalidates, undo/redo restore" `Quick test_plan_cache;
          Alcotest.test_case "one context for every query" `Quick test_one_context_per_state;
          Alcotest.test_case "flat over distinct reads" `Quick test_plan_memory_flat;
          Alcotest.test_case "a Set1 scan types from the hierarchy index" `Quick
            test_scan_typing_lean;
          Alcotest.test_case "AE-TPH renders no unread message" `Quick test_tph_apply_lean;
          Alcotest.test_case "a namesake AEP shares join-chain columns" `Quick
            test_namesake_aep_lean;
          Alcotest.test_case "reads share the view plans" `Quick test_plan_sharing;
          Alcotest.test_case "10,000 distinct shapes stay under the cap" `Quick test_prepared_cap;
        ] );
    ]
