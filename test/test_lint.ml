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

let check_fires what code ds =
  checkb (Printf.sprintf "%s fires %s (got: %s)" what code (String.concat "," (codes ds))) true
    (has_code code ds)

(* -- per-fragment defect classes ------------------------------------------ *)

(* L003: nullable attribute paired with a NOT NULL column. *)
let test_nullability_clash () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p ~nick:`Not_null () ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = Lint.Passes.fragment_diags env f in
  check_fires "nullable->NOT NULL" "L003" ds;
  checkb "L003 is a warning" true (Diag.errors ds = []);
  (* Declaring the attribute non-null silences it. *)
  let env' = env_of [ ("Persons", person ~nick:`Not_null (), []) ] [ table_p ~nick:`Not_null () ] in
  checkb "non-null attribute is clean" false (has_code "L003" (Lint.Passes.fragment_diags env' f));
  (* So does a client condition forcing the attribute non-null. *)
  let f' =
    F.entity ~set:"Persons" ~cond:(C.Is_not_null "Nick") ~table:"P"
      [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  checkb "IS NOT NULL guard is clean" false (has_code "L003" (Lint.Passes.fragment_diags env f'))

(* L005: a primary-key column neither mapped nor fixed by the store side. *)
let test_key_non_coverage () =
  let t =
    Relational.Table.make ~name:"P" ~key:[ "Id"; "Part" ]
      [ ("Id", D.Int, `Not_null); ("Part", D.Int, `Not_null); ("Nick", D.String, `Null) ]
  in
  let env = env_of [ ("Persons", person (), []) ] [ t ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = Lint.Passes.fragment_diags env f in
  check_fires "unmapped pk column" "L005" ds;
  checkb "L005 (uncovered) is an error" true (Diag.errors ds <> []);
  (* Fixing the column with a store-side constant discharges it. *)
  let f' =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P"
      ~store_cond:(C.Cmp ("Part", C.Eq, V.Int 1))
      [ ("Id", "Id"); ("Nick", "Nick") ]
  in
  checkb "store constant covers the pk column" false
    (has_code "L005" (Lint.Passes.fragment_diags env f'))

(* L007: contradictory fragment conditions. *)
let test_unsatisfiable_condition () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let contradiction = C.And (C.Cmp ("Id", C.Eq, V.Int 1), C.Cmp ("Id", C.Eq, V.Int 2)) in
  let f = F.entity ~set:"Persons" ~cond:contradiction ~table:"P" [ ("Id", "Id") ] in
  check_fires "contradictory client cond" "L007" (Lint.Passes.fragment_diags env f);
  let g =
    F.entity ~set:"Persons" ~cond:C.True ~table:"P"
      ~store_cond:(C.And (C.Cmp ("Nick", C.Eq, V.String "a"), C.Is_null "Nick"))
      [ ("Id", "Id") ]
  in
  check_fires "contradictory store cond" "L007" (Lint.Passes.fragment_diags env g)

(* L004: column domain does not subsume the attribute's. *)
let test_domain_clash () =
  let t =
    Relational.Table.make ~name:"P" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Nick", D.Bool, `Null) ]
  in
  let env = env_of [ ("Persons", person (), []) ] [ t ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let ds = Lint.Passes.fragment_diags env f in
  check_fires "string into bool" "L004" ds;
  checkb "L004 is an error" true (Diag.errors ds <> [])

(* -- whole-model defect classes -------------------------------------------- *)

(* L006: overlapping fragments writing conflicting columns. *)
let test_overlapping_fragments () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Nick", "Nick") ] in
  let g = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id"); ("Id", "Nick") ] in
  let frags = Mapping.Fragments.of_list [ f; g ] in
  check_fires "conflicting writes" "L006" (Lint.Passes.model_diags env frags);
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
    (has_code "L006" (Lint.Passes.model_diags env (Mapping.Fragments.of_list [ f'; g' ])))

(* L001 / L002 / L010: unmapped attribute, unwritten column, unmapped table. *)
let test_inventory_passes () =
  let env =
    env_of
      [ ("Persons", person (), []) ]
      [ table_p ();
        Relational.Table.make ~name:"Orphan" ~key:[ "K" ] [ ("K", D.Int, `Not_null) ] ]
  in
  let f = F.entity ~set:"Persons" ~cond:C.True ~table:"P" [ ("Id", "Id") ] in
  let ds = Lint.Passes.model_diags env (Mapping.Fragments.of_list [ f ]) in
  check_fires "Nick mapped nowhere" "L001" ds;
  check_fires "Orphan table" "L010" ds;
  let t2 =
    Relational.Table.make ~name:"P" ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); ("Nick", D.String, `Not_null) ]
  in
  let env' = env_of [ ("Persons", person (), []) ] [ t2 ] in
  check_fires "NOT NULL column written nowhere" "L002"
    (Lint.Passes.model_diags env' (Mapping.Fragments.of_list [ f ]))

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
  let ds = Lint.Passes.view_diags env qv Query.View.no_update_views in
  check_fires "contradictory guard" "L008" ds;
  (* The pass runs on hierarchy-root views: the same ctor under a non-root
     name is skipped by design. *)
  let qv' = Query.View.set_entity_view "NotARoot" v Query.View.no_query_views in
  checkb "non-root views skipped" false
    (has_code "L008" (Lint.Passes.view_diags env qv' Query.View.no_update_views))

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
  check_fires "dead final else" "L008"
    (Lint.Passes.view_diags env qv Query.View.no_update_views)

(* L011: unsatisfiable selection inside a view query. *)
let test_dead_selection () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let q =
    A.Select (C.And (C.Cmp ("Nick", C.Eq, V.String "a"), C.Is_null "Nick"), A.Scan (A.Table "P"))
  in
  let v = { Query.View.query = q; ctor = Query.Ctor.Tuple [ "Id"; "Nick" ] } in
  let uv = Query.View.set_table_view "P" v Query.View.no_update_views in
  check_fires "dead selection" "L011" (Lint.Passes.view_diags env Query.View.no_query_views uv)

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
  let loj =
    { Query.View.query =
        A.Left_outer_join (A.Scan (A.Table "Q"), A.Scan (A.Table "P"), [ "Id" ]);
      ctor = Query.Ctor.Tuple [ "Id"; "Nick" ] }
  in
  let ds =
    Lint.Wf.check env' Query.View.no_query_views
      (Query.View.set_table_view "P" loj Query.View.no_update_views)
  in
  check_fires "NULL into NOT NULL" "L104" ds

(* Clean views yield no Error-severity finding; a broken constructor does. *)
let test_wf_errors () =
  let env = env_of [ ("Persons", person (), []) ] [ table_p () ] in
  let good = { Query.View.query = A.Scan (A.Table "P"); ctor = Query.Ctor.Tuple [ "Id"; "Nick" ] } in
  let bad_v = { good with Query.View.ctor = Query.Ctor.Tuple [ "Ghost" ] } in
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
          let views = (c.Fullc.Compile.query_views, c.Fullc.Compile.update_views) in
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
          let views = (c.Fullc.Compile.query_views, c.Fullc.Compile.update_views) in
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
  let s = S.start (ok_exn (Core.State.bootstrap P.stage4.P.env P.stage4.P.fragments)) in
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
  let views = (c.Fullc.Compile.query_views, c.Fullc.Compile.update_views) in
  ignore (Lint.Analyze.run ~views env frags);
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let ds, lint_dt = wall (fun () -> Lint.Analyze.run ~views env frags) in
  check Alcotest.int "model is clean" 0 (List.length ds);
  let r, val_dt = wall (fun () -> Fullc.Validate.run env frags c.Fullc.Compile.update_views) in
  (match r with Ok _ -> () | Error e -> Alcotest.failf "validation rejected the model: %s" e);
  checkb
    (Printf.sprintf "lint (%.1f ms) >= 50x faster than validation (%.1f ms)" (lint_dt *. 1e3)
       (val_dt *. 1e3))
    true
    (val_dt >= 50.0 *. lint_dt)

(* -- diagnostics plumbing -------------------------------------------------- *)

let test_diag_render () =
  let d =
    Diag.make ~code:"L004" ~severity:Diag.Error ~loc:(Diag.Table "P") "domain \"clash\""
  in
  let w = Diag.make ~code:"L003" ~severity:Diag.Warning ~loc:(Diag.Fragment "f") "nullable" in
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
        ] );
      ( "soundness",
        [ prop_soundness; Alcotest.test_case "builtins clean" `Quick test_builtin_models_clean ]
      );
      ("session", [ Alcotest.test_case "lint is Analyze.run" `Quick test_session_lint ]);
      ( "speed",
        [ Alcotest.test_case "beats validation by 50x" `Slow test_faster_than_validation ] );
      ("diag", [ Alcotest.test_case "rendering" `Quick test_diag_render ]);
    ]
