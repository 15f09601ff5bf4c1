open Common
module Diag = Lint.Diag
module F = Mapping.Fragment

(* -- tiny model builders --------------------------------------------------- *)

let client_of roots =
  List.fold_left
    (fun sch (set, root, derived) ->
      let sch = ok_exn (Edm.Schema.add_root ~set root sch) in
      List.fold_left (fun sch d -> ok_exn (Edm.Schema.add_derived d sch)) sch derived)
    Edm.Schema.empty roots

let store_of tables =
  List.fold_left (fun sch t -> ok_exn (Relational.Schema.add_table t sch)) Relational.Schema.empty
    tables

let env_of roots tables = Query.Env.make ~client:(client_of roots) ~store:(store_of tables)

let person ?(nick = `Null) () =
  Edm.Entity_type.root ~name:"Person" ~key:[ "Id" ]
    ~non_null:(match nick with `Null -> [] | `Not_null -> [ "Nick" ])
    [ ("Id", D.Int); ("Nick", D.String) ]

let table_p ?(nick = `Null) () =
  Relational.Table.make ~name:"P" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Nick", D.String, nick) ]

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code c ds = List.mem c (codes ds)
let show_diags ds = String.concat "\n    " (List.map (Format.asprintf "%a" Diag.pp) ds)

(* The mapping analysis must return exactly what its oracle, which rebuilds
   its lists per lookup, returns; returns its diagnostics. *)
let same_passes tag env frags =
  let lean = Lint.Passes.run env frags in
  let oracle = Lint_tree.Passes.run env frags in
  if lean <> oracle then
    Alcotest.failf "%s: Passes.run differs from its oracle\n  lean:\n    %s\n  oracle:\n    %s" tag
      (show_diags lean) (show_diags oracle);
  lean

let passes env frags = same_passes "planted fault" env frags

(* The mapping analysis of a one-fragment set. *)
let lint_one env f = passes env (Mapping.Fragments.of_list [ f ])

let check_fires what code ds =
  checkb (Printf.sprintf "%s fires %s (got: %s)" what code (String.concat "," (codes ds))) true
    (has_code code ds)

(* -- per-fragment defect classes ------------------------------------------ *)

(* L003: nullable attribute paired with a NOT NULL column. *)
let test_nullability_clash () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p ~nick:`Not_null () ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = lint_one env f in
  check_fires "nullable->NOT NULL" "L003" ds;
  checkb "L003 is a warning" true (Diag.errors ds = []);
  (* Declaring the attribute non-null silences it. *)
  let env' = env_of [ ("Persons", person ~nick:`Not_null (), []) ] [ table_p ~nick:`Not_null () ] in
  checkb "non-null attribute is clean" false (has_code "L003" (lint_one env' f));
  (* So does a client condition forcing the attribute non-null. *)
  let f' =
    F.entity ~set:"Persons" ~cond:(C.Is_not_null "Nick") ~table:"P"
      [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  checkb "IS NOT NULL guard is clean" false (has_code "L003" (lint_one env f'))

(* L005: a primary-key column neither mapped nor fixed by the store side. *)
let test_key_non_coverage () =
  let t =
    Relational.Table.make ~name:"P" ~key:[ "Id"; "Part" ]
      [ ("Id", D.Int, `Not_null); ("Part", D.Int, `Not_null); ("Nick", D.String, `Null) ]
  in
  let env = env_of [ ("Persons", person (), []) ] [ t ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = lint_one env f in
  check_fires "unmapped pk column" "L005" ds;
  checkb "L005 (uncovered) is an error" true (Diag.errors ds <> []);
  (* Fixing the column with a store-side constant discharges it. *)
  let f' =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P"
      ~store_cond:(C.Cmp ("Part", C.Eq, V.Int 1))
      [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  checkb "store constant covers the pk column" false (has_code "L005" (lint_one env f'))

(* L007: contradictory fragment conditions. *)
let test_unsatisfiable_condition () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let contradiction = C.And (C.Cmp ("Id", C.Eq, V.Int 1), C.Cmp ("Id", C.Eq, V.Int 2)) in
  let f = F.entity ~set:"Persons" ~cond:contradiction ~table:"P" [ ("Id", "Id") ] in
  check_fires "contradictory client cond" "L007" (lint_one env f);
  let g =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P"
      ~store_cond:(C.And (C.Cmp ("Nick", C.Eq, V.String "a"), C.Is_null "Nick"))
      [ ("Id", "Id") ]
  in
  check_fires "contradictory store cond" "L007" (lint_one env g)

(* L004: column domain does not subsume the attribute's. *)
let test_domain_clash () =
  let t =
    Relational.Table.make ~name:"P" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Nick", D.Bool, `Null) ]
  in
  let env = env_of [ ("Persons", person (), []) ] [ t ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = lint_one env f in
  check_fires "string into bool" "L004" ds;
  checkb "L004 is an error" true (Diag.errors ds <> [])

(* -- whole-model defect classes -------------------------------------------- *)

(* L006: overlapping fragments writing conflicting columns. *)
let test_overlapping_fragments () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let g = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Id", "Nick") ] in
  let frags = Mapping.Fragments.of_list [ f; g ] in
  check_fires "conflicting writes" "L006" (passes env frags);
  (* Disjoint client conditions silence it: no entity hits both fragments. *)
  let f' =
    F.entity ~set:"Persons" ~cond:(C.Cmp ("Id", C.Lt, V.Int 0)) ~table:"P"
      [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  let g' =
    F.entity ~set:"Persons" ~cond:(C.Cmp ("Id", C.Ge, V.Int 0)) ~table:"P"
      [ ("Id", "Id"); ("Id", "Nick") ]
  in
  checkb "disjoint conditions are clean" false
    (has_code "L006" (passes env (Mapping.Fragments.of_list [ f'; g' ])))

(* L001 / L002 / L010: unmapped attribute, unwritten column, unmapped table. *)
let test_inventory_passes () =
  let env =
    env_of
      [ ("Persons", person (), []) ]
      [ table_p ();
        Relational.Table.make ~name:"Orphan" ~key:[ "K" ] [ ("K", D.Int, `Not_null) ] ]
  in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id") ] in
  let ds = lint_one env f in
  check_fires "Nick mapped nowhere" "L001" ds;
  check_fires "Orphan table" "L010" ds;
  let t2 =
    Relational.Table.make ~name:"P" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Nick", D.String, `Not_null) ]
  in
  let env' = env_of [ ("Persons", person (), []) ] [ t2 ] in
  check_fires "NOT NULL column written nowhere" "L002" (lint_one env' f);
  (* A client condition that fixes Nick to a constant maps it. *)
  let fixed =
    F.entity ~set:"Persons" ~cond:(C.Cmp ("Nick", C.Eq, V.String "x")) ~table:"P" [ ("Id", "Id") ]
  in
  checkb "a client constant maps the attribute" false (has_code "L001" (lint_one env fixed))

(* L005 (warning), L009, L012: a key column fed by a non-key attribute,
   associations mapped without foreign keys or not at all, and a fragment
   only the well-formedness catch-all rejects. *)
let test_keys_assocs_catch_all () =
  let thing = Edm.Entity_type.root ~name:"Thing" ~key:[ "Id" ] [ ("Id", D.Int) ] in
  let assoc name =
    { Edm.Association.name; end1 = "Person"; end2 = "Thing"; mult1 = Edm.Association.Many;
      mult2 = Edm.Association.Many }
  in
  let client =
    List.fold_left
      (fun sch a -> ok_exn (Edm.Schema.add_association (assoc a) sch))
      (client_of [ ("Persons", person (), []); ("Things", thing, []) ])
      [ "Owns"; "Likes" ]
  in
  let ints name key cols =
    Relational.Table.make ~name ~key (List.map (fun (c, n) -> (c, D.Int, n)) cols)
  in
  let store =
    store_of
      [ table_p (); ints "T" [ "Id" ] [ ("Id", `Not_null) ];
        ints "J" [ "Pid"; "Tid" ] [ ("Pid", `Not_null); ("Tid", `Not_null) ];
        ints "J2" [ "Pid" ] [ ("Pid", `Not_null); ("Tid", `Null) ] ]
  in
  let env = Query.Env.make ~client ~store in
  let things = F.entity ~set:"Things" ~cond:C.True ~table:"T" [ ("Id", "Id") ] in
  let lint frags = passes env (Mapping.Fragments.of_list (things :: frags)) in
  let person_p =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  let owns table = F.assoc ~assoc:"Owns" ~table [ ("Person.Id", "Pid"); ("Thing.Id", "Tid") ] in
  let at code loc ds = List.exists (fun (d : Diag.t) -> d.code = code && d.loc = loc) ds in
  let ds = lint [ person_p; owns "J" ] in
  checkb "L009: join table without foreign keys" true (at "L009" (Diag.Assoc "Owns") ds);
  checkb "L009: association mapped by no fragment" true (at "L009" (Diag.Assoc "Likes") ds);
  let ds = lint [ person_p; owns "J2" ] in
  checkb "L009: association column backed by no foreign key" true
    (List.exists
       (fun (d : Diag.t) -> d.code = "L009" && contains ~sub:"backed by no foreign key" d.message)
       ds);
  let swapped =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Nick", "Id"); ("Id", "Nick") ]
  in
  check_fires "key column fed by a non-key attribute" "L005" (lint [ swapped ]);
  let ghost = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Ghost", "Nick") ] in
  check_fires "unknown attribute" "L012" (lint [ ghost ]);
  (* Each way a fragment can fail [Fragment.well_formed] is an error, with
     the oracle's message. *)
  let person ?(set = "Persons") ?(cond = C.True) ?(table = "P") ?store_cond pairs =
    F.entity ~set ~cond ~table ?store_cond pairs
  in
  List.iter
    (fun (what, f) -> checkb (what ^ ": an error") true (Diag.errors (lint [ f ]) <> []))
    [ ("unknown table", person ~table:"Ghost" [ ("Id", "Id"); ("Nick", "Nick") ]);
      ("duplicate attribute", person [ ("Id", "Id"); ("Id", "Nick") ]);
      ("duplicate column", person [ ("Id", "Id"); ("Nick", "Id") ]);
      ("unknown column", person [ ("Id", "Id"); ("Nick", "Ghost") ]);
      ("store type test", person ~store_cond:(C.Is_of "Person") [ ("Id", "Id"); ("Nick", "Nick") ]);
      ( "store column unknown",
        person ~store_cond:(C.Or (C.Is_null "Zed", C.Is_null "Ghost")) [ ("Id", "Id"); ("Nick", "Nick") ] );
      ("unknown set", person ~set:"Ghosts" [ ("Id", "Id"); ("Nick", "Nick") ]);
      ("key not projected", person [ ("Nick", "Nick") ]);
      ("type outside the hierarchy", person ~cond:(C.Is_of "Thing") [ ("Id", "Id"); ("Nick", "Nick") ]);
      ( "condition attribute unknown",
        person ~cond:(C.And (C.Is_of "Person", C.Is_null "Ghost")) [ ("Id", "Id"); ("Nick", "Nick") ] );
      ("unknown association", F.assoc ~assoc:"Ghost" ~table:"J" [ ("Person.Id", "Pid") ]);
      ("association key column missing", F.assoc ~assoc:"Owns" ~table:"J" [ ("Person.Id", "Pid") ]);
      ("association with a client condition", { (owns "J") with client_cond = C.Is_null "Pid" }) ]

(* -- compiled-view defect classes ------------------------------------------ *)

let entity_leaf = Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Nick" ] }

(* L008: dead CASE branch (contradictory guard). *)
let test_dead_case_branch () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let dead_guard = C.And (C.Cmp ("Id", C.Eq, V.Int 1), C.Cmp ("Id", C.Eq, V.Int 2)) in
  let v =
    { Query.View.query = A.Scan (A.Table "P");
      ctor = Query.Ctor.If (dead_guard, entity_leaf, entity_leaf) }
  in
  let qv = Query.View.set_entity_view "Person" v Query.View.no_query_views in
  let ds = Lint.Wf.check env qv Query.View.no_update_views in
  check_fires "contradictory guard" "L008" ds;
  (* The pass runs on hierarchy-root views: the same ctor under a non-root
     name is skipped by design. *)
  let qv' = Query.View.set_entity_view "NotARoot" v Query.View.no_query_views in
  checkb "non-root views skipped" false
    (has_code "L008" (Lint.Wf.check env qv' Query.View.no_update_views))

(* A CASE chain with a branch dead only in context: [Ctor.branches]
   accumulates the complemented else-guards, so the pass sees the
   contradiction between an outer NOT and an inner test. *)
let test_dead_final_else () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let chain =
    Query.Ctor.If
      ( C.Is_null "Nick",
        entity_leaf,
        Query.Ctor.If (C.Is_null "Nick", entity_leaf, entity_leaf) )
  in
  (* guard of the inner then-branch is NOT(Nick IS NULL) AND Nick IS NULL —
     contradictory only once the complemented else-guard is accumulated. *)
  let v = { Query.View.query = A.Scan (A.Table "P"); ctor = chain } in
  let qv = Query.View.set_entity_view "Person" v Query.View.no_query_views in
  check_fires "dead final else" "L008" (Lint.Wf.check env qv Query.View.no_update_views)

(* L011: unsatisfiable selection inside a view query. *)
let test_dead_selection () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let q =
    A.Select (C.And (C.Cmp ("Nick", C.Eq, V.String "a"), C.Is_null "Nick"), A.Scan (A.Table "P"))
  in
  let uv = Query.View.set_table_view "P" q Query.View.no_update_views in
  check_fires "dead selection" "L011" (Lint.Wf.check env Query.View.no_query_views uv)

(* -- algebra well-formedness (Wf) ------------------------------------------ *)

let test_wf_codes () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let wf_of v =
    Lint.Wf.check env
      (Query.View.set_entity_view "Person" v Query.View.no_query_views)
      Query.View.no_update_views
  in
  (* L102: duplicate projection destination. *)
  let dup =
    { Query.View.query = A.Project ([ A.col "Id"; A.col_as "Nick" "Id" ], A.Scan (A.Table "P"));
      ctor = entity_leaf }
  in
  check_fires "duplicate dst" "L102" (wf_of dup);
  (* L105: ctor references a column the query does not produce. *)
  let missing =
    { Query.View.query = A.project_cols [ "Id" ] (A.Scan (A.Table "P"));
      ctor = Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Ghost" ] } }
  in
  check_fires "missing ctor column" "L105" (wf_of missing);
  (* L101: the typing judgment itself rejects the query. *)
  let broken = { Query.View.query = A.Scan (A.Table "NoSuch"); ctor = entity_leaf } in
  check_fires "untypable query" "L101" (wf_of broken);
  (* L104: NOT NULL column fed from outer-join padding. *)
  let t2 = Relational.Table.make ~name:"Q" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ] in
  let env' = env_of [ ("Persons", person (), []) ] [ table_p ~nick:`Not_null (); t2 ] in
  let loj = A.Join (Query.Join.Left, A.Scan (A.Table "Q"), A.Scan (A.Table "P"), [ "Id" ]) in
  let ds =
    Lint.Wf.check env' Query.View.no_query_views
      (Query.View.set_table_view "P" loj Query.View.no_update_views)
  in
  check_fires "NULL into NOT NULL" "L104" ds

(* Clean views yield no Error-severity finding; an update view with a
   column its table lacks does. *)
let test_wf_errors () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let good = A.Scan (A.Table "P") in
  let bad_v = A.Project ([ A.col "Id"; A.col "Nick"; A.col_as "Id" "Ghost" ], good) in
  let errors v =
    Diag.errors
      (Lint.Wf.check env Query.View.no_query_views
         (Query.View.set_table_view "P" v Query.View.no_update_views))
  in
  check Alcotest.int "clean views have no errors" 0 (List.length (errors good));
  checkb "broken views have an L105 error" true (has_code "L105" (errors bad_v))

(* -- soundness: valid models produce zero errors --------------------------- *)

(* Random valid-by-construction models: compile their views and demand that
   the analyzer reports no Error-severity diagnostic (the {!Lint.Diag}
   soundness contract).  Warnings are allowed — the generators legitimately
   produce e.g. associations without foreign keys. *)
let prop_soundness =
  qtest ~count:200 "valid models lint without errors"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let env, frags = Workload.Random_model.generate ~seed () in
      match Fullc.Compile.compile ~validate:false env frags with
      | Error e -> QCheck.Test.fail_reportf "seed %d failed view generation: %s" seed e
      | Ok c ->
          let views = (c.Core.State.query_views, c.Core.State.update_views) in
          ignore (same_passes (Printf.sprintf "seed %d" seed) env frags);
          let ds = Lint.Analyze.run ~views env frags in
          (match Diag.errors ds with
          | [] -> ()
          | d :: _ ->
              QCheck.Test.fail_reportf "seed %d: %s" seed (Format.asprintf "%a" Diag.pp d));
          true)

(* The builtin evaluation models are fully clean (CI lints them --strict). *)
let test_builtin_models_clean () =
  List.iter
    (fun (name, env, frags) ->
      match Fullc.Compile.compile ~validate:false env frags with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok c ->
          let views = (c.Core.State.query_views, c.Core.State.update_views) in
          check Alcotest.int (name ^ " diag count") 0
            (List.length (Lint.Analyze.run ~views env frags)))
    [
      (let s = Workload.Paper_example.stage4 in
       let env, frags = (s.Workload.Paper_example.env, s.Workload.Paper_example.fragments) in
       ("paper", env, frags));
      (let env, frags = Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tph in
       ("hub-rim", env, frags));
      (let env, frags = Workload.Customer.generate () in
       ("customer", env, frags));
    ]

(* -- session ----------------------------------------------------------------- *)

let test_session_lint () =
  let module P = Workload.Paper_example in
  let module S = Core.Session in
  let s = S.start (ok_exn (Fullc.Compile.compile P.stage4.P.env P.stage4.P.fragments)) in
  let level =
    Core.Smo.Add_property
      { etype = "Employee"; attr = ("Level", D.Int);
        target = Core.Add_property.To_existing_table { table = "Emp"; column = "Level" } }
  in
  let analyze s =
    let st = S.current s in
    Lint.Analyze.run
      ~views:(st.Core.State.query_views, st.Core.State.update_views)
      st.Core.State.env st.Core.State.fragments
  in
  let same msg s =
    check Alcotest.(list string) msg
      (List.map (Format.asprintf "%a" Diag.pp) (analyze s))
      (List.map (Format.asprintf "%a" Diag.pp) (S.lint s))
  in
  same "initial state" s;
  let s' = ok_v (S.apply s level) in
  same "after an SMO" s';
  same "after undo" (Option.get (S.undo s'))

(* -- speed: static analysis vs obligation-based validation ----------------- *)

(* The ISSUE acceptance bound, on a model whose validation is expensive but
   bounded (hub-rim N=3, M=3: full cell partitioning over several hub
   tables).  E11 in EXPERIMENTS.md records the full-suite numbers. *)
let test_faster_than_validation () =
  let env, frags = Workload.Hub_rim.generate ~n:3 ~m:3 ~style:`Tph in
  let c = ok_exn (Fullc.Compile.compile ~validate:false env frags) in
  let views = (c.Core.State.query_views, c.Core.State.update_views) in
  ignore (Lint.Analyze.run ~views env frags);
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let ds, lint_dt = wall (fun () -> Lint.Analyze.run ~views env frags) in
  check Alcotest.int "model is clean" 0 (List.length ds);
  let r, val_dt = wall (fun () -> Fullc.Validate.run env frags) in
  (match r with Ok _ -> () | Error e -> Alcotest.failf "validation rejected the model: %s" e);
  checkb
    (Printf.sprintf "lint (%.1f ms) >= 50x faster than validation (%.1f ms)" (lint_dt *. 1e3)
       (val_dt *. 1e3))
    true
    (val_dt >= 50.0 *. lint_dt)

(* -- shared subterms: the memoized passes against the tree walks ----------- *)

(* The memoized [Wf.check] must return exactly what the two tree-walking
   oracles return together; returns its diagnostics. *)
let same_as_tree tag env qv uv =
  let dag = Lint.Wf.check env qv uv in
  let tree = Diag.sort (Lint_tree.Wf.check env qv uv @ Lint_tree.Views.view_diags env qv uv) in
  if dag <> tree then
    Alcotest.failf "%s: Wf.check differs from the tree walks\n  memoized:\n    %s\n  tree:\n    %s"
      tag (show_diags dag) (show_diags tree);
  dag

(* The memoized analysis and the tree walks alike report the L105 error
   [message] at [loc]. *)
let check_l105 what env qv uv loc message =
  let ds = same_as_tree what env qv uv in
  checkb
    (Printf.sprintf "%s: L105 error \"%s\" (got:\n    %s)" what message (show_diags ds))
    true
    (List.exists
       (fun (d : Diag.t) ->
         d.code = "L105" && d.severity = Diag.Error && d.loc = loc && d.message = message)
       ds)

(* L105 on update views: a column the table lacks, a table column the view
   omits, and a table the store lacks are each an error at the update
   view. *)
let test_update_view_columns () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let p = A.Scan (A.Table "P") in
  List.iter
    (fun (what, table, q, message) ->
      let uv = Query.View.set_table_view table q Query.View.no_update_views in
      check_l105 what env Query.View.no_query_views uv (Diag.Update_view table) message)
    [
      ( "extra column",
        "P",
        A.Project ([ A.col "Id"; A.col "Nick"; A.col_as "Id" "Ghost" ], p),
        "the update view produces column Ghost, which table P lacks" );
      ( "missing column",
        "P",
        A.project_cols [ "Id" ] p,
        "the update view does not produce column Nick of table P" );
      ("unknown table", "Ghost", p, "the store has no table Ghost");
    ]

(* L105 on association views, as on update views: on the paper's stage-4
   model a Supports view that yields a column the association lacks, one
   that omits an association column, and a view of an association the
   client lacks are each an error at the view. *)
let test_assoc_view_columns () =
  let s = Workload.Paper_example.stage4 in
  let env = s.Workload.Paper_example.env in
  let client = A.Select (C.Is_not_null "Eid", A.Scan (A.Table "Client")) in
  let supports = [ A.col_as "Cid" "Customer.Id"; A.col_as "Eid" "Employee.Id" ] in
  List.iter
    (fun (what, assoc, q, message) ->
      let qv = Query.View.set_assoc_view assoc q Query.View.no_query_views in
      check_l105 what env qv Query.View.no_update_views (Diag.Query_view assoc) message)
    [
      ( "extra column",
        "Supports",
        A.Project (supports @ [ A.col_as "Name" "Ghost" ], client),
        "the association view produces column Ghost, which association Supports lacks" );
      ( "missing column",
        "Supports",
        A.Project ([ List.hd supports ], client),
        "the association view does not produce column Employee.Id of association Supports" );
      ( "unknown association",
        "Ghost",
        A.Project (supports, client),
        "the client has no association Ghost" );
    ]

(* Faults planted in a view set without breaking its sharing: the rewrite is
   itself memoized on physical identity, so a damaged shared subterm stays
   shared by every view that contained it.  Which nodes are hit depends on
   their structural hash: some selections become unsatisfiable (L011) or
   test a column their input lacks (L101), some projections bind a column
   twice (L102) or become a union with their own column-reversed copy
   (L103), some entity constructor leaves name a column no query
   produces, and some association and update views trade their first
   column for one their association or table lacks (L105). *)
let damage (qv : Query.View.query_views) (uv : Query.View.update_views) =
  let hit k x = Hashtbl.hash x mod k = 0 in
  let query =
    Query.Algebra.Memo.fix (Query.Algebra.Memo.create ()) (fun go q ->
        match q with
        | A.Scan _ -> q
        | A.Select (c, sub) ->
            let c =
              if hit 5 q then C.And (c, C.False)
              else if hit 7 q then C.And (c, C.Is_null "Ghost")
              else c
            in
            A.Select (c, go sub)
        | A.Project (items, sub) ->
            let sub = go sub in
            if hit 13 q then A.Project (items @ [ A.null_as (A.dst_of (List.hd items)) ], sub)
            else if hit 5 q then A.Union_all (A.Project (items, sub), A.Project (List.rev items, sub))
            else A.Project (items, sub)
        | A.Join (kind, l, r, on) -> A.Join (kind, go l, go r, on)
        | A.Union_all (l, r) -> A.Union_all (go l, go r))
  in
  let ctor =
    Query.Ctor.Memo.fix (Query.Ctor.Memo.create ()) (fun go c ->
        match c with
        | Query.Ctor.Entity { etype; attrs } when hit 3 c ->
            Query.Ctor.Entity { etype; attrs = attrs @ [ "Ghost" ] }
        | Query.Ctor.Entity _ -> c
        | Query.Ctor.If (cond, a, b) -> Query.Ctor.If (cond, go a, go b))
  in
  let view (v : Query.View.t) = { Query.View.query = query v.query; ctor = ctor v.ctor } in
  let trade name q =
    match query q with
    | A.Project (_ :: items, sub) when hit 3 name -> A.Project (A.null_as "Ghost" :: items, sub)
    | q -> q
  in
  let qv =
    List.fold_left
      (fun qv (a, q) -> Query.View.set_assoc_view a (trade a q) qv)
      (List.fold_left
         (fun qv (ty, v) -> Query.View.set_entity_view ty (view v) qv)
         qv (Query.View.entity_view_bindings qv))
      (Query.View.assoc_view_bindings qv)
  in
  let uv =
    List.fold_left
      (fun uv (t, q) -> Query.View.set_table_view t (trade t q) uv)
      uv (Query.View.update_view_bindings uv)
  in
  (qv, uv)

(* Checks the state's mapping against the mapping oracle, and its views as
   they are and, with [damaged], once more with faults planted; returns the
   damaged views' diagnostics. *)
let same_as_tree_state ?(damaged = true) tag (st : Core.State.t) =
  let env = st.Core.State.env in
  let qv, uv = (st.Core.State.query_views, st.Core.State.update_views) in
  ignore (same_passes tag env st.Core.State.fragments);
  ignore (same_as_tree tag env qv uv);
  if not damaged then []
  else
    let qv', uv' = damage qv uv in
    same_as_tree (tag ^ " (damaged)") env qv' uv'

let builtin_models () =
  [
    (let s = Workload.Paper_example.stage4 in
     ("paper", s.Workload.Paper_example.env, s.Workload.Paper_example.fragments));
    (let env, frags = Workload.Chain.generate ~size:30 in
     ("chain-30", env, frags));
    (let env, frags = Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tph in
     ("hub-rim", env, frags));
    (let env, frags = Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tpt in
     ("hub-rim-tpt", env, frags));
    (let env, frags = Workload.Customer.generate () in
     ("customer", env, frags));
  ]

(* A state saved and loaded back, as the e2e loop obtains it: the loader
   shares equal subterms. *)
let reloaded st = ok_exn (Surface.State_io.load (Surface.State_io.save st))

let loaded_state env frags =
  reloaded (ok_exn (Fullc.Compile.compile ~validate:false env frags))

let test_dag_builtins () =
  List.iter
    (fun (name, env, frags) ->
      let st = ok_exn (Fullc.Compile.compile ~validate:false env frags) in
      ignore (same_as_tree_state (name ^ " compiled") st);
      (* The optimizer is what introduces unions. *)
      let o = ok_exn (Fullc.Compile.compile ~validate:false ~optimize:true env frags) in
      ignore (same_as_tree_state (name ^ " optimized") o);
      let ds = same_as_tree_state (name ^ " loaded") (reloaded st) in
      (* The planted faults are there to be found, L105 at association
         views too. *)
      if name = "customer" then (
        List.iter
          (fun code -> check_fires "damaged customer" code ds)
          [ "L011"; "L101"; "L102"; "L103"; "L105" ];
        let assoc_view (d : Diag.t) =
          match d.loc with
          | Diag.Query_view a -> Edm.Schema.find_association env.Query.Env.client a <> None
          | _ -> false
        in
        checkb "damaged customer: L105 at an association view" true
          (List.exists (fun (d : Diag.t) -> d.code = "L105" && assoc_view d) ds)))
    (builtin_models ())

(* Customer after each suite SMO alone (as the e2e [edit] op applies it) and
   after the whole suite in sequence: Algorithm 1's output shares the old
   views' subterms. *)
let test_dag_customer_suite () =
  let env, frags = Workload.Customer.generate () in
  let st = loaded_state env frags in
  let suite = Workload.Customer.smo_suite () in
  List.iter
    (fun (label, smo) ->
      ignore (same_as_tree_state ("customer + " ^ label) (ok_v (Core.Engine.apply st smo))))
    suite;
  ignore
    (List.fold_left
       (fun st (label, smo) ->
         let st = ok_v (Core.Engine.apply st smo) in
         ignore (same_as_tree_state ~damaged:false ("customer suite up to " ^ label) st);
         st)
       st suite)

let prop_dag_random =
  qtest ~count:200 "random models match tree"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let env, frags = Workload.Random_model.generate ~seed () in
      let tag = Printf.sprintf "seed %d" seed in
      let st = loaded_state env frags in
      ignore (same_as_tree_state tag st);
      (match random_pipeline seed st with
      | None -> ()
      | Some smos ->
          ignore
            (List.fold_left
               (fun st smo ->
                 Option.bind st (fun st ->
                     match Core.Engine.apply st smo with
                     | Error _ -> None
                     | Ok st ->
                         ignore (same_as_tree_state (tag ^ " after " ^ Core.Smo.name smo) st);
                         Some st))
               (Some st) smos));
      true)

(* L104 at each kind of node, each update view feeding a table whose Id
   and Nick are NOT NULL, against the tree walk: outer-join padding, an
   inner join keeping a nullable side, selections that do and do not rule
   NULL out, NULL constants, COALESCE, unions, a nullable entity attribute,
   an absent source column (read as NULL), and a query over a table the
   store lacks (L101's business, so no L104). *)
let test_null_dataflow () =
  let table name nick =
    Relational.Table.make ~name ~key:[ "Id" ] [ ("Id", D.Int, `Not_null); ("Nick", D.String, nick) ]
  in
  let q = A.Scan (A.Table "Q") and r = A.Scan (A.Table "R") and nn = A.Scan (A.Table "Nn") in
  let join kind l r = A.Join (kind, l, r, [ "Id" ]) in
  let views =
    [ ("Loj", join Query.Join.Left q nn, true);
      ("Inner", join Query.Join.Inner q r, true);
      ("Inner_nn", join Query.Join.Inner q nn, false);
      ("Full", join Query.Join.Full q nn, true);
      ("Full_left", join Query.Join.Full r q, true);
      ("Refined", A.Select (C.Is_not_null "Nick", r), false);
      ("Null_cmp", A.Select (C.Cmp ("Nick", C.Eq, V.Null), r), true);
      ("Const_null", A.Project ([ A.col "Id"; A.null_as "Nick" ], q), true);
      ("Coalesce", A.Project ([ A.col "Id"; A.coalesce [ "Nick"; "Id" ] "Nick" ], r), false);
      ("Coalesce_null", A.Project ([ A.col "Id"; A.coalesce [ "Nick" ] "Nick" ], r), true);
      ("Union", A.Union_all (nn, r), true);
      ("Union_nn", A.Union_all (nn, nn), false);
      ("Entity", A.project_cols [ "Id"; "Nick" ] (A.Scan (A.Entity_set "Persons")), true);
      ("Absent", A.Project ([ A.col "Id"; A.col_as "Ghost" "Nick" ], q), true);
      ("Unresolved", join Query.Join.Left q (A.Scan (A.Table "Nowhere")), false) ]
  in
  let q_table = Relational.Table.make ~name:"Q" ~key:[ "Id" ] [ ("Id", D.Int, `Not_null) ] in
  let env =
    env_of
      [ ("Persons", person (), []) ]
      (q_table :: table "R" `Null :: table "Nn" `Not_null
      :: List.map (fun (t, _, _) -> table t `Not_null) views)
  in
  let uv =
    List.fold_left
      (fun uv (t, v, _) -> Query.View.set_table_view t v uv)
      Query.View.no_update_views views
  in
  let ds = same_as_tree "L104 dataflow" env Query.View.no_query_views uv in
  List.iter
    (fun (t, _, expected) ->
      checkb (t ^ ": L104") expected
        (List.exists (fun (d : Diag.t) -> d.code = "L104" && d.loc = Diag.Update_view t) ds))
    views

(* One shared subterm carries an L102 and an L103 fault, one shared
   constructor an L105 fault, one shared selection an L011 fault; each sits
   in two views, and each must be reported at both. *)
let test_shared_faults () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let p = A.Scan (A.Table "P") in
  let dup = A.Project ([ A.col "Id"; A.col "Nick"; A.col_as "Nick" "Id" ], p) in
  let shared =
    A.Union_all
      (A.project_cols [ "Id"; "Nick" ] dup, A.Project ([ A.col "Nick"; A.col "Id" ], p))
  in
  let ghost = Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Ghost" ] } in
  let dead = A.Select (C.And (C.Is_null "Nick", C.Is_not_null "Nick"), p) in
  let qv =
    Query.View.no_query_views
    |> Query.View.set_entity_view "V1" { Query.View.query = shared; ctor = entity_leaf }
    |> Query.View.set_entity_view "V2"
         { Query.View.query = A.Select (C.Is_not_null "Id", shared); ctor = entity_leaf }
    |> Query.View.set_entity_view "V3" { Query.View.query = p; ctor = ghost }
    |> Query.View.set_entity_view "V4" { Query.View.query = A.project_cols [ "Id"; "Nick" ] p; ctor = ghost }
    |> Query.View.set_entity_view "V5" { Query.View.query = dead; ctor = entity_leaf }
  in
  let uv = Query.View.set_table_view "P" (A.project_cols [ "Id"; "Nick" ] dead) Query.View.no_update_views in
  let ds = Lint.Wf.check env qv uv in
  let reported code loc =
    checkb
      (Format.asprintf "reported: %a (got:\n    %s)" Diag.pp
         { Diag.code; severity = Diag.Error; loc; message = "" } (show_diags ds))
      true
      (List.exists (fun (d : Diag.t) -> d.code = code && d.loc = loc) ds)
  in
  List.iter
    (fun (code, locs) -> List.iter (reported code) locs)
    [
      ("L102", [ Diag.Query_view "V1"; Diag.Query_view "V2" ]);
      ("L103", [ Diag.Query_view "V1"; Diag.Query_view "V2" ]);
      ("L105", [ Diag.Query_view "V3"; Diag.Query_view "V4" ]);
      ("L011", [ Diag.Query_view "V5"; Diag.Update_view "P" ]);
    ];
  ignore (same_as_tree "shared faults" env qv uv)

(* The view fold derives the lenient column lists and "no L102/L103" from
   [infer]'s verdict where it succeeds, and works them out on their own only
   where it fails.  These views sit on that boundary. *)
let test_typed_fold_boundary () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let p = A.Scan (A.Table "P") in
  let view q = { Query.View.query = q; ctor = entity_leaf } in
  let lint tag views =
    let qv =
      List.fold_left
        (fun qv (name, v) -> Query.View.set_entity_view name v qv)
        Query.View.no_query_views views
    in
    same_as_tree tag env qv Query.View.no_update_views
  in
  let at name code ds =
    List.exists (fun (d : Diag.t) -> d.code = code && d.loc = Diag.Query_view name) ds
  in
  (* [infer] rejects the left projection (absent column), so it types no
     union above it; the lenient lists still show the sides in different
     order. *)
  let rejected = A.Project ([ A.col "Id"; A.col_as "Ghost" "Nick" ], p) in
  let ds =
    lint "L103 above a rejected projection"
      [ ("V", view (A.Union_all (rejected, A.Project ([ A.col "Nick"; A.col "Id" ], p)))) ]
  in
  checkb "L103 above a projection infer rejects" true (at "V" "L103" ds);
  checkb "and L101 for the absent column" true (at "V" "L101" ds);
  (* [infer] stops at the absent column, before it looks for duplicates, in
     the projection itself and in its input; L102 is still reported, and
     explains the failure, so L101 is not. *)
  let dup_over q = A.Project ([ A.col "Id"; A.col_as "Nick" "Id" ], q) in
  let ds =
    lint "L102 after an earlier failure"
      [ ("Own", view (A.Project ([ A.col "Ghost"; A.col "Id"; A.col_as "Nick" "Id" ], p)));
        ("Below", view (dup_over (A.Select (C.Is_null "Ghost", p)))) ]
  in
  List.iter
    (fun name ->
      checkb (name ^ ": L102 reported") true (at name "L102" ds);
      checkb (name ^ ": L101 suppressed") false (at name "L101" ds))
    [ "Own"; "Below" ];
  (* Three views over one physical column list (one query, and a selection
     over it, which passes the list up); one constructor names a column the
     list lacks.  L105 is that view's alone. *)
  let q = A.project_cols [ "Id"; "Nick" ] p in
  let ghost = Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Ghost" ] } in
  let ds =
    lint "L105 on a shared column list"
      [ ("Clean", view q);
        ("Ghost", { Query.View.query = q; ctor = ghost });
        ("Selected", view (A.Select (C.Is_not_null "Id", q))) ]
  in
  checkb "L105 at the view whose constructor names the column" true (at "Ghost" "L105" ds);
  checkb "no L105 at the views that share its columns" false
    (at "Clean" "L105" ds || at "Selected" "L105" ds)

(* Each [Analyze.run] opens one span per pass under [lint.analyze], and the
   view analysis reports the sharing it exploits. *)
let test_pass_spans () =
  let env, frags = Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tpt in
  let st = loaded_state env frags in
  let views = (st.Core.State.query_views, st.Core.State.update_views) in
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (Lint.Analyze.run ~views env frags);
      ignore (Lint.Analyze.run ~views env frags));
  let roots = Obs.Span.roots () in
  check Alcotest.(list string) "two runs, two roots" [ "lint.analyze"; "lint.analyze" ]
    (List.map Obs.Span.name roots);
  List.iter
    (fun root ->
      let kids = Obs.Span.children root in
      check Alcotest.(list string) "one span per pass"
        [ "lint.fragments"; "lint.model"; "lint.views" ]
        (List.map Obs.Span.name kids);
      List.iter
        (fun kid ->
          match Obs.Span.name kid with
          | "lint.views" ->
              let attr k = int_of_string (List.assoc k (Obs.Span.attrs kid)) in
              let tree = attr "tree_nodes" and distinct = attr "distinct_nodes" in
              checkb
                (Printf.sprintf "%s: 0 < distinct (%d) <= tree (%d)" (Obs.Span.name kid) distinct
                   tree)
                true
                (0 < distinct && distinct <= tree)
          | _ -> ())
        kids)
    roots;
  Obs.Span.reset ()

(* -- allocation ------------------------------------------------------------ *)

(* A full lint of the loaded customer state, which has no findings, reads
   the schemas, fragments and views in place, and its typed fold shares
   each join's left column list: after a warm-up lint, one [Analyze.run]
   allocates at most 1.92 MB of minor-heap words, its 1.75 MB plus 10%
   (2.0 MB when each join copied its left list, 6.5 MB when each lookup
   rebuilt its lists). *)
let test_customer_lean () =
  let env, frags = Workload.Customer.generate () in
  let st = loaded_state env frags in
  let views = (st.Core.State.query_views, st.Core.State.update_views) in
  let lint () = Lint.Analyze.run ~views st.Core.State.env st.Core.State.fragments in
  ignore (lint ());
  let w0 = Gc.minor_words () in
  let ds = lint () in
  let mb = (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8) /. 1e6 in
  check Alcotest.int "loaded customer is clean" 0 (List.length ds);
  if mb > 1.92 then Alcotest.failf "one lint of loaded customer allocated %.2f MB" mb

(* -- diagnostics plumbing -------------------------------------------------- *)

let test_diag_render () =
  let d =
    { Diag.code = "L004"; severity = Diag.Error; loc = Diag.Table "P"; message = "domain \"clash\"" }
  in
  let w = { Diag.code = "L003"; severity = Diag.Warning; loc = Diag.Fragment "f"; message = "nullable" } in
  let sorted = Diag.sort [ w; d ] in
  checkb "errors sort first" true ((List.hd sorted).Diag.severity = Diag.Error);
  check Alcotest.(triple int int int) "count" (1, 1, 0) (Diag.count sorted);
  let text = Diag.to_text sorted in
  checkb "text has summary" true (contains ~sub:"1 error(s), 1 warning(s)" text);
  let json = Diag.to_json sorted in
  checkb "json escapes quotes" true (contains ~sub:"domain \\\"clash\\\"" json);
  checkb "json counts errors" true (contains ~sub:"\"errors\": 1" json)

let () =
  Alcotest.run "lint"
    [
      ( "fragment passes",
        [
          Alcotest.test_case "L003 nullability clash" `Quick test_nullability_clash;
          Alcotest.test_case "L005 key non-coverage" `Quick test_key_non_coverage;
          Alcotest.test_case "L007 unsatisfiable condition" `Quick test_unsatisfiable_condition;
          Alcotest.test_case "L004 domain clash" `Quick test_domain_clash;
        ] );
      ( "model passes",
        [
          Alcotest.test_case "L006 overlapping fragments" `Quick test_overlapping_fragments;
          Alcotest.test_case "L001/L002/L010 inventory" `Quick test_inventory_passes;
          Alcotest.test_case "L005/L009/L012 keys, associations, catch-all" `Quick
            test_keys_assocs_catch_all;
        ] );
      ( "view passes",
        [
          Alcotest.test_case "L008 dead branch" `Quick test_dead_case_branch;
          Alcotest.test_case "L008 dead final else" `Quick test_dead_final_else;
          Alcotest.test_case "L011 dead selection" `Quick test_dead_selection;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "codes" `Quick test_wf_codes;
          Alcotest.test_case "check reports errors" `Quick test_wf_errors;
          Alcotest.test_case "L105 update-view columns" `Quick test_update_view_columns;
          Alcotest.test_case "L105 association-view columns" `Quick test_assoc_view_columns;
        ] );
      ( "soundness",
        [ prop_soundness; Alcotest.test_case "builtins clean" `Quick test_builtin_models_clean ]
      );
      ("session", [ Alcotest.test_case "lint is Analyze.run" `Quick test_session_lint ]);
      ( "shared subterms",
        [
          Alcotest.test_case "builtins match tree" `Quick test_dag_builtins;
          Alcotest.test_case "customer suite matches tree" `Quick test_dag_customer_suite;
          prop_dag_random;
          Alcotest.test_case "shared faults at every view" `Quick test_shared_faults;
          Alcotest.test_case "L104 dataflow matches tree" `Quick test_null_dataflow;
          Alcotest.test_case "typed fold boundary" `Quick test_typed_fold_boundary;
          Alcotest.test_case "one span per pass" `Quick test_pass_spans;
        ] );
      ( "speed",
        [ Alcotest.test_case "beats validation by 50x" `Slow test_faster_than_validation ] );
      ("allocation", [ Alcotest.test_case "customer lint stays lean" `Quick test_customer_lean ]);
      ("diag", [ Alcotest.test_case "rendering" `Quick test_diag_render ]);
    ]
