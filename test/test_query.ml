open Common

let env = pe.Workload.Paper_example.env
let client = env.Query.Env.client
let sample_db = { Query.Eval.client = Workload.Paper_example.sample_client;
                  store = Workload.Paper_example.sample_store }

let persons = A.Scan (A.Entity_set "Persons")

let test_entity_scan () =
  let rows = Query.Eval.rows env sample_db persons in
  check Alcotest.int "six entities" 6 (List.length rows);
  let ana = List.find (fun r -> V.equal (Datum.Row.get "Id" r) (V.Int 1)) rows in
  checkb "type column bound" true (V.equal (Datum.Row.get "$type" ana) (V.String "Person"));
  checkb "absent attribute padded with NULL" true (V.equal (Datum.Row.get "Department" ana) V.Null);
  let cyd = List.find (fun r -> V.equal (Datum.Row.get "Id" r) (V.Int 3)) rows in
  checkb "declared attribute present" true
    (V.equal (Datum.Row.get "Department" cyd) (V.String "Sales"))

let test_type_conditions () =
  let count c = List.length (Query.Eval.rows env sample_db (A.Select (c, persons))) in
  check Alcotest.int "IS OF Person matches all" 6 (count (C.Is_of "Person"));
  check Alcotest.int "IS OF Employee" 2 (count (C.Is_of "Employee"));
  check Alcotest.int "IS OF ONLY Person" 2 (count (C.Is_of_only "Person"));
  check Alcotest.int "disjunction" 4
    (count (C.Or (C.Is_of_only "Person", C.Is_of "Employee")));
  check Alcotest.int "null test" 4 (count (C.Is_null "Department"));
  check Alcotest.int "comparison with NULL attr is false" 2
    (count (C.Cmp ("CredScore", C.Ge, V.Int 0)))

let test_project_consts () =
  let q =
    A.Project
      ( [ A.col "Id"; A.col_as "Name" "N"; A.tag "flag"; A.null_as "pad" ],
        A.Select (C.Is_of_only "Person", persons) )
  in
  let rows = Query.Eval.rows env sample_db q in
  check Alcotest.int "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      checkb "tag true" true (V.equal (Datum.Row.get "flag" r) (V.Bool true));
      checkb "pad null" true (V.equal (Datum.Row.get "pad" r) V.Null);
      checkb "renamed" true (Datum.Row.find "N" r <> None))
    rows

let hr = A.Scan (A.Table "HR")
let emp = A.Scan (A.Table "Emp")

let test_joins () =
  let j = A.Join (Query.Join.Inner, hr, emp, [ "Id" ]) in
  check Alcotest.int "inner join" 2 (List.length (Query.Eval.rows env sample_db j));
  let loj = A.Join (Query.Join.Left, hr, emp, [ "Id" ]) in
  let rows = Query.Eval.rows env sample_db loj in
  check Alcotest.int "left outer join keeps all HR" 4 (List.length rows);
  let ana = List.find (fun r -> V.equal (Datum.Row.get "Id" r) (V.Int 1)) rows in
  checkb "unmatched padded" true (V.equal (Datum.Row.get "Dept" ana) V.Null)

let test_join_null_no_match () =
  (* Join Client.Eid against Emp.Id: Fay's NULL Eid must not match. *)
  let q =
    A.Join
      ( Query.Join.Inner,
        A.project_renamed [ ("Cid", "Cid"); ("Eid", "Id") ] (A.Scan (A.Table "Client")),
        A.project_cols [ "Id"; "Dept" ] emp,
        [ "Id" ] )
  in
  check Alcotest.int "null join key drops row" 1 (List.length (Query.Eval.rows env sample_db q))

(* Each kind's rows exactly, in nested-loop order: every left row with its
   matches in right order, or padded when an outer join finds none; then,
   for [Full], every unmatched right row padded.  The sides hold a NULL
   key each, a key on two rows of both sides, and an unmatched key each. *)
let test_join_rows_exact () =
  let store =
    Relational.Instance.empty
    |> Relational.Instance.set_rows ~table:"Client"
         (List.map
            (fun (cid, eid) -> row [ ("Cid", V.Int cid); ("Eid", eid) ])
            [ (1, V.Int 10); (2, V.Int 10); (3, V.Null); (4, V.Int 30) ])
    |> Relational.Instance.set_rows ~table:"Emp"
         (List.map
            (fun (id, dept) -> row [ ("Id", id); ("Dept", V.String dept) ])
            [ (V.Int 10, "x"); (V.Int 10, "y"); (V.Null, "n"); (V.Int 20, "z") ])
  in
  let db = { sample_db with Query.Eval.store } in
  let l = A.project_renamed [ ("Cid", "A"); ("Eid", "K") ] (A.Scan (A.Table "Client")) in
  let r = A.project_renamed [ ("Id", "K"); ("Dept", "B") ] emp in
  let out (a, k, b) = row [ ("A", a); ("K", k); ("B", b) ] in
  let i n = V.Int n and str x = V.String x in
  let matched =
    [ (i 1, i 10, str "x"); (i 1, i 10, str "y"); (i 2, i 10, str "x"); (i 2, i 10, str "y") ]
  in
  let left = matched @ [ (i 3, V.Null, V.Null); (i 4, i 30, V.Null) ] in
  let full = left @ [ (V.Null, V.Null, str "n"); (V.Null, i 20, str "z") ] in
  let exact = Alcotest.testable (Format.pp_print_list Datum.Row.pp) (List.equal Datum.Row.equal) in
  List.iter
    (fun (what, kind, expected) ->
      check exact what (List.map out expected)
        (Query.Eval.rows env db (A.Join (kind, l, r, [ "K" ]))))
    [ ("inner", Query.Join.Inner, matched); ("left", Query.Join.Left, left);
      ("full", Query.Join.Full, full) ]

let test_full_outer_join () =
  let adult = A.project_renamed [ ("Id", "Id"); ("Name", "Name") ] hr in
  let dept = A.project_renamed [ ("Id", "Id"); ("Dept", "Dept") ] emp in
  let foj = A.Join (Query.Join.Full, adult, dept, [ "Id" ]) in
  check Alcotest.int "foj covers both sides" 4 (List.length (Query.Eval.rows env sample_db foj));
  (* Make an Emp row with no HR partner to exercise the right-unmatched leg. *)
  let store' =
    Relational.Instance.add_row ~table:"Emp"
      (row [ ("Id", V.Int 50); ("Dept", V.String "Ghost") ])
      sample_db.Query.Eval.store
  in
  let db' = { sample_db with Query.Eval.store = store' } in
  let rows = Query.Eval.rows env db' foj in
  check Alcotest.int "right-unmatched kept" 5 (List.length rows);
  let ghost = List.find (fun r -> V.equal (Datum.Row.get "Id" r) (V.Int 50)) rows in
  checkb "left side padded" true (V.equal (Datum.Row.get "Name" ghost) V.Null)

let test_union_all () =
  let q = A.Union_all (A.project_cols [ "Id" ] hr, A.project_cols [ "Id" ] emp) in
  check Alcotest.int "bag union" 6 (List.length (Query.Eval.rows env sample_db q));
  check Alcotest.int "set semantics dedups" 4 (List.length (Query.Eval.rows_set env sample_db q))

(* The messages [infer] names: a join's first join column one side lacks;
   of two right columns that clash with the left side, the first in
   producer order (neither the alphabetically first nor the last); a union's
   sides, each in producer order, a join's included. *)
let test_infer_messages () =
  let msg q = match A.infer env q with Ok _ -> "ok" | Error e -> e in
  let l = A.Project ([ A.col "Id"; A.null_as "Alf"; A.null_as "Zed" ], hr) in
  let r = A.Project ([ A.col "Id"; A.null_as "Zed"; A.null_as "Alf" ], emp) in
  check Alcotest.string "first clash in producer order"
    "non-join column Zed appears on both join sides"
    (msg (A.Join (Query.Join.Inner, l, r, [ "Id" ])));
  check Alcotest.string "clash under a chain"
    "non-join column Zed appears on both join sides"
    (msg (A.Join (Query.Join.Left, A.Join (Query.Join.Left, hr, l, [ "Id" ]), r, [ "Id" ])));
  check Alcotest.string "first missing join column" "join column Name missing on one side"
    (msg (A.Join (Query.Join.Inner, hr, emp, [ "Name"; "Id"; "Dept" ])));
  let join = A.Join (Query.Join.Inner, hr, emp, [ "Id" ]) in
  check Alcotest.string "union sides in producer order"
    "union sides disagree: {Id,Name,Dept} vs {Id,Name}" (msg (A.Union_all (join, hr)));
  check Alcotest.string "union of projections" "union sides disagree: {Id,Dept} vs {Id,Name}"
    (msg (A.Union_all (A.project_cols [ "Id"; "Dept" ] emp, A.project_cols [ "Id"; "Name" ] hr)));
  check Alcotest.string "agreeing sets in another order" "ok"
    (msg (A.Union_all (join, A.project_cols [ "Dept"; "Id"; "Name" ] join)));
  check (Alcotest.list Alcotest.string) "shared form is reversed" [ "Dept"; "Name"; "Id" ]
    (ok_exn (A.infer_rev env join))

(* Every physically distinct subterm of [roots], once each. *)
let distinct_subterms roots =
  let seen = ref [] in
  let visit =
    A.Memo.fix (A.Memo.create ()) (fun visit q ->
        seen := q :: !seen;
        match q with
        | A.Scan _ -> ()
        | A.Select (_, q) | A.Project (_, q) -> visit q
        | A.Join (_, l, r, _) | A.Union_all (l, r) ->
            visit l;
            visit r)
  in
  List.iter visit roots;
  List.rev !seen

(* [infer], its shared form plain and memoized, and the list-copying
   oracle ([Infer_tree], memoized) agree, columns and error text, on every
   distinct subterm of [roots], and on terms built from neighbouring pairs
   of them that are mostly ill-typed: unions, outer joins on a left column
   and with no join column, a test of an absent column, a doubled item.
   The plain recursions walk each subterm as a tree, so [~plain:false]
   checks the memoized form alone. *)
let same_as_oracle ?(plain = true) tag env roots =
  let shared = A.typing env in
  let oracle = A.Memo.fix (A.Memo.create ()) (fun infer -> Infer_tree.step (fun _ -> infer) env) in
  let result = Alcotest.(result (list string) string) in
  let same q =
    let oracle = oracle q in
    check result (tag ^ ": memoized") oracle (Result.map List.rev (shared q));
    if plain then begin
      check result (tag ^ ": infer") oracle (A.infer env q);
      check result (tag ^ ": infer_rev") oracle (Result.map List.rev (A.infer_rev env q))
    end;
    oracle
  in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        let on = match same a with Ok (c :: _) -> [ c ] | Ok [] | Error _ -> [] in
        List.iter
          (fun q -> ignore (same q))
          [ A.Union_all (a, b); A.Join (Query.Join.Left, a, b, on);
            A.Join (Query.Join.Full, b, a, []); A.Select (C.Is_null "Ghost", a);
            A.Project ([ A.col "Id"; A.col "Id" ], a) ];
        pairs rest
    | [ a ] -> ignore (same a)
    | [] -> ()
  in
  let subterms = distinct_subterms roots in
  pairs subterms;
  List.length subterms

let view_queries (st : Core.State.t) =
  List.map (fun (_, (v : Query.View.t)) -> v.Query.View.query)
    (Query.View.entity_view_bindings st.Core.State.query_views)
  @ List.map snd (Query.View.assoc_view_bindings st.Core.State.query_views)
  @ List.map snd (Query.View.update_view_bindings st.Core.State.update_views)

let compiled_state env frags =
  ok_exn (Fullc.Compile.compile ~validate:false env frags)

(* Customer as compiled, and after each suite SMO (whose views extend the
   old views' join chains) in the memoized form. *)
let test_infer_oracle_customer () =
  let env, frags = Workload.Customer.generate () in
  let st = compiled_state env frags in
  let n = same_as_oracle "customer" env (view_queries st) in
  checkb "customer has many distinct subterms" true (n > 1000);
  List.iter
    (fun (label, smo) ->
      let st = ok_v (Core.Engine.apply st smo) in
      ignore
        (same_as_oracle ~plain:false ("customer + " ^ label) st.Core.State.env (view_queries st)))
    (Workload.Customer.smo_suite ())

(* Random models, compiled and after each accepted step of their SMO
   pipelines. *)
let test_infer_oracle_random () =
  List.iter
    (fun seed ->
      let env, frags = Workload.Random_model.generate ~seed () in
      let tag = Printf.sprintf "seed %d" seed in
      let st = compiled_state env frags in
      ignore (same_as_oracle tag env (view_queries st));
      match random_pipeline seed st with
      | None -> ()
      | Some smos ->
          ignore
            (List.fold_left
               (fun st smo ->
                 match Core.Engine.apply st smo with
                 | Error _ -> st
                 | Ok st ->
                     ignore
                       (same_as_oracle (tag ^ " after " ^ Core.Smo.name smo) st.Core.State.env
                          (view_queries st));
                     st)
               st smos))
    (List.init 25 (fun i -> i + 1))

(* Minor words [f ()] allocates. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* A left-deep chain of [n] left outer joins on [Id] over tables T0..Tn,
   each adding its own column C<i>, and its environment. *)
let join_chain n =
  let table i =
    Relational.Table.make ~name:(Printf.sprintf "T%d" i) ~key:[ "Id" ]
      [ ("Id", D.Int, `Not_null); (Printf.sprintf "C%d" i, D.String, `Null) ]
  in
  let store =
    List.fold_left
      (fun s i -> ok_exn (Relational.Schema.add_table (table i) s))
      Relational.Schema.empty (List.init (n + 1) Fun.id)
  in
  let scan i = A.Scan (A.Table (Printf.sprintf "T%d" i)) in
  let chain =
    List.fold_left
      (fun acc i -> A.Join (Query.Join.Left, acc, scan i, [ "Id" ]))
      (scan 0) (List.init n (fun i -> i + 1))
  in
  (Query.Env.make ~client:Edm.Schema.empty ~store, chain)

(* Typing a join chain is linear in its length: a join's list shares its
   left input's, so 400 joins allocate at most 5x what 100 do (16x when
   each join copied the left list). *)
let test_chain_typing_linear () =
  let words n =
    let env, chain = join_chain n in
    check Alcotest.int (Printf.sprintf "%d-join chain columns" n) (n + 2)
      (List.length (ok_exn (A.infer env chain)));
    minor_words (fun () -> A.infer env chain)
  in
  let w100 = words 100 and w400 = words 400 in
  if w400 > 5. *. w100 then
    Alcotest.failf "typing 400 joins allocated %.0f words, 100 joins %.0f" w400 w100

let test_infer_errors () =
  checkb "unknown set" true (Result.is_error (A.infer env (A.Scan (A.Entity_set "Nope"))));
  checkb "projection of absent column" true
    (Result.is_error (A.infer env (A.project_cols [ "Zz" ] hr)));
  checkb "duplicate projected name" true
    (Result.is_error (A.infer env (A.Project ([ A.col "Id"; A.col_as "Name" "Id" ], hr))));
  checkb "type test over table rows" true
    (Result.is_error (A.infer env (A.Select (C.Is_of "Person", hr))));
  checkb "union schema mismatch" true
    (Result.is_error (A.infer env (A.Union_all (hr, emp))));
  checkb "join clash outside join columns" true
    (Result.is_error
       (A.infer env (A.Join (Query.Join.Inner, hr, A.Scan (A.Table "HR"), [ "Id" ]))));
  check (Alcotest.list Alcotest.string) "join output order" [ "Id"; "Name"; "Dept" ]
    (ok_exn (A.infer env (A.Join (Query.Join.Inner, hr, emp, [ "Id" ]))))

(* -- Cond properties ------------------------------------------------------ *)

let rows_of_instance inst = Query.Eval.rows env (Query.Eval.client_db inst) persons

let prop_dnf_equivalent =
  qtest "dnf preserves evaluation" ~count:300
    QCheck.(pair arb_cond arb_client_instance)
    (fun (c, inst) ->
      let dnf = C.dnf c in
      List.for_all
        (fun r ->
          let direct = C.eval client r c in
          let via_dnf =
            List.exists (fun conj -> List.for_all (fun a -> C.eval client r a) conj) dnf
          in
          direct = via_dnf)
        (rows_of_instance inst))

let prop_simplify_equivalent =
  qtest "simplify preserves evaluation" ~count:300
    QCheck.(pair arb_cond arb_client_instance)
    (fun (c, inst) ->
      let s = C.simplify c in
      List.for_all (fun r -> C.eval client r c = C.eval client r s) (rows_of_instance inst))

(* A simplified condition is its own simplification, physically: the
   linter simplifies CASE guards once and relies on it. *)
let prop_simplify_shares =
  qtest "simplify keeps a simplified condition" ~count:300 arb_cond (fun c ->
      let s = C.simplify c in
      C.simplify s == s)

let prop_negate_complements =
  qtest "negate is the row-level complement" ~count:300
    QCheck.(pair arb_cond_no_types arb_client_instance)
    (fun (c, inst) ->
      match C.negate c with
      | None -> QCheck.Test.fail_reportf "negate returned None on a type-free condition"
      | Some nc ->
          List.for_all
            (fun r -> C.eval client r c <> C.eval client r nc)
            (rows_of_instance inst))

let test_cond_helpers () =
  let c = C.And (C.Is_of "Employee", C.Or (C.Cmp ("Id", C.Ge, V.Int 1), C.Is_null "Name")) in
  check Alcotest.int "atoms" 3 (List.length (C.atoms c));
  check (Alcotest.list Alcotest.string) "columns" [ "Id"; "Name" ] (C.columns c);
  check Alcotest.int "type atoms" 1 (List.length (C.type_atoms c));
  let renamed = C.rename_columns [ ("Id", "Pid") ] c in
  check (Alcotest.list Alcotest.string) "renamed columns" [ "Name"; "Pid" ] (C.columns renamed);
  check (Alcotest.list Alcotest.string) "comparison spellings" [ "="; "<>"; "<"; "<="; ">"; ">=" ]
    (List.map C.cmp_to_string [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ]);
  List.iter
    (fun op -> checkb "spelling reads back" true (C.cmp_of_string (C.cmp_to_string op) = Some op))
    [ C.Eq; C.Neq; C.Lt; C.Le; C.Gt; C.Ge ];
  checkb "unknown spelling" true (C.cmp_of_string "==" = None)

(* -- simplifier ----------------------------------------------------------- *)

let random_queries =
  [
    A.Select (C.True, persons);
    A.Select (C.Is_of "Employee", A.Select (C.Cmp ("Id", C.Ge, V.Int 2), persons));
    A.Project
      ( [ A.col "Id"; A.col_as "Name" "N" ],
        A.Project ([ A.col "Id"; A.col "Name"; A.tag "t" ], persons) );
    A.Project ([ A.col "Id"; A.col "Dept" ], (A.Scan (A.Table "Emp")));
    A.Project
      ( [ A.col_as "X" "Y" ],
        A.Project ([ A.const (V.Int 7) "X" ], A.Scan (A.Table "HR")) );
    A.Union_all
      (A.Select (C.False, A.project_cols [ "Id" ] hr), A.project_cols [ "Id" ] emp);
  ]

let test_simplify_queries () =
  List.iter
    (fun q ->
      let s = Query.Simplify.query env q in
      check rows_testable (Format.asprintf "%a" A.pp q) (Query.Eval.rows env sample_db q)
        (Query.Eval.rows env sample_db s))
    random_queries;
  (* Specific shapes. *)
  checkb "select true dropped" true
    (A.equal (Query.Simplify.query env (A.Select (C.True, persons))) persons);
  checkb "identity projection dropped" true
    (A.equal (Query.Simplify.query env (A.project_cols [ "Id"; "Dept" ] (A.Scan (A.Table "Emp"))))
       (A.Scan (A.Table "Emp")))

(* Contradiction folding: jointly unsatisfiable conjuncts collapse the whole
   conjunction to FALSE (which the lint passes use to spot dead conditions). *)
let test_simplify_contradictions () =
  let eq a n = C.Cmp (a, C.Eq, V.Int n) in
  let folds c = C.equal (Query.Simplify.cond c) C.False in
  checkb "clashing equalities" true (folds (C.And (eq "Id" 1, eq "Id" 2)));
  checkb "IS NULL vs comparison" true (folds (C.And (C.Is_null "Id", eq "Id" 1)));
  checkb "crossed range bounds" true
    (folds (C.And (C.Cmp ("Id", C.Lt, V.Int 0), C.Cmp ("Id", C.Ge, V.Int 10))));
  checkb "lone comparison against NULL" true (folds (C.Cmp ("Id", C.Eq, V.Null)));
  checkb "contradiction deep in a conjunction" true
    (folds (C.And (eq "Id" 1, C.And (C.Cmp ("Name", C.Eq, V.String "a"), eq "Id" 2))));
  checkb "contradictory disjunct dropped" true
    (C.equal (Query.Simplify.cond (C.Or (C.And (eq "Id" 1, eq "Id" 2), eq "Id" 3))) (eq "Id" 3));
  let clean = C.And (eq "Id" 1, C.Cmp ("Name", C.Eq, V.String "a")) in
  checkb "satisfiable condition unchanged" true (C.equal (Query.Simplify.cond clean) clean)

let prop_simplify_cond_equivalent =
  qtest "contradiction folding preserves evaluation" ~count:300
    QCheck.(pair arb_cond arb_client_instance)
    (fun (c, inst) ->
      let s = Query.Simplify.cond c in
      List.for_all (fun r -> C.eval client r c = C.eval client r s) (rows_of_instance inst))

(* [unsat] decides [cond c = False] with one folding and no rebuilding. *)
let prop_unsat_is_cond_false =
  qtest "unsat is cond = FALSE" ~count:500 arb_cond (fun c ->
      Query.Simplify.unsat c = C.equal (Query.Simplify.cond c) C.False)

(* -- pretty --------------------------------------------------------------- *)

let test_pretty () =
  let q = A.Project ([ A.col "Id"; A.col "Name" ], (A.Select (C.Is_of "Person", persons))) in
  check Alcotest.string "fragment left side"
    "SELECT Id, Name\nFROM Persons\nWHERE IS OF Person"
    (Format.asprintf "%a" Query.Pretty.query q);
  let v =
    { Query.View.query = A.project_cols [ "Id"; "Name" ] hr;
      ctor = Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Name" ] } }
  in
  let s = Format.asprintf "%a" Query.Pretty.view v in
  checkb "view string mentions SELECT VALUE" true
    (String.length s > 0 && String.sub s 0 12 = "SELECT VALUE")

(* -- ctor ----------------------------------------------------------------- *)

let sample_ctor =
  Query.Ctor.If
    ( C.Cmp ("tC", C.Eq, V.Bool true),
      Query.Ctor.Entity { etype = "Customer"; attrs = [ "Id"; "Name"; "CredScore"; "BillAddr" ] },
      Query.Ctor.If
        ( C.Cmp ("tE", C.Eq, V.Bool true),
          Query.Ctor.Entity { etype = "Employee"; attrs = [ "Id"; "Name"; "Department" ] },
          Query.Ctor.Entity { etype = "Person"; attrs = [ "Id"; "Name" ] } ) )

let test_ctor_eval () =
  let r = row [ ("Id", V.Int 1); ("Name", V.String "x"); ("Department", V.String "d");
                ("tE", V.Bool true); ("tC", V.Null) ] in
  let e = Query.Ctor.eval_entity client r sample_ctor in
  check Alcotest.string "branches on tags" "Employee" e.Edm.Instance.etype;
  checkb "attrs projected" true (Datum.Row.find "Department" e.Edm.Instance.attrs <> None);
  checkb "tag not in attrs" false (Datum.Row.find "tE" e.Edm.Instance.attrs <> None)

let test_ctor_guard () =
  let g =
    Option.get
      (Query.Ctor.guard_for sample_ctor ~satisfies:(fun ty ->
           Edm.Schema.is_subtype client ~sub:ty ~sup:"Employee"))
  in
  let r_emp = row [ ("tE", V.Bool true); ("tC", V.Null) ] in
  let r_per = row [ ("tE", V.Null); ("tC", V.Null) ] in
  let r_cus = row [ ("tE", V.Null); ("tC", V.Bool true) ] in
  checkb "guard accepts employee rows" true (C.eval client r_emp g);
  checkb "guard rejects plain person rows" false (C.eval client r_per g);
  checkb "guard rejects customer rows" false (C.eval client r_cus g)

(* [branches] complements the else-guards as it descends, so a CASE chain
   whose final else can never be reached carries a guard that folds to FALSE
   under {!Query.Simplify.cond} — how the linter detects dead branches. *)
let test_ctor_dead_final_else () =
  let leaf n = Query.Ctor.Entity { etype = n; attrs = [ "Id" ] } in
  let chain =
    Query.Ctor.If
      (C.Is_null "x", leaf "A", Query.Ctor.If (C.Is_not_null "x", leaf "B", leaf "C"))
  in
  match Query.Ctor.branches chain with
  | None -> Alcotest.fail "all guards are negatable"
  | Some bs -> (
      check Alcotest.int "three branches" 3 (List.length bs);
      let dead g = C.equal (Query.Simplify.cond g) C.False in
      match bs with
      | [ (g1, l1); (g2, _); (g3, l3) ] ->
          checkb "then branch first" true (Query.Ctor.equal l1 (leaf "A"));
          checkb "first guard live" false (dead g1);
          checkb "second guard live" false (dead g2);
          checkb "final else leaf last" true (Query.Ctor.equal l3 (leaf "C"));
          checkb "final else guard is dead" true (dead g3)
      | _ -> Alcotest.fail "unexpected branch shape")

(* [branches] builds each guard by extending its parent's; the oracle
   conjoins and simplifies each leaf's path on its own. *)
let prop_ctor_branches =
  let leaf i = Query.Ctor.Entity { etype = "T" ^ string_of_int i; attrs = [ "Id" ] } in
  let gen =
    QCheck.Gen.(
      sized_size (int_bound 12)
      @@ fix (fun self n ->
             if n = 0 then map leaf small_nat
             else
               map3
                 (fun c a b -> Query.Ctor.If (c, a, b))
                 (frequency [ (9, gen_cond_no_types); (1, gen_cond) ])
                 (self (n / 3)) (self (n - 1 - (n / 3)))))
  in
  let oracle ctor =
    let ( let* ) = Option.bind in
    let rec go guard = function
      | Query.Ctor.Entity _ as k ->
          Some [ (C.simplify (C.conj (List.rev guard)), k) ]
      | Query.Ctor.If (c, a, b) ->
          let* bs_then = go (c :: guard) a in
          let* nc = C.negate c in
          let* bs_else = go (nc :: guard) b in
          Some (bs_then @ bs_else)
    in
    go [] ctor
  in
  qtest "branches are the simplified path conjunctions" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Query.Ctor.pp) gen) (fun ctor ->
      Option.equal
        (List.equal (fun (g, k) (g', k') -> C.equal g g' && Query.Ctor.equal k k'))
        (Query.Ctor.branches ctor) (oracle ctor))

(* Unfolding a type test over a projection that dropped the provenance
   machinery must fail with the type-erasing diagnostic, not silently
   produce a wrong store query. *)
let test_unfold_type_erasing_error () =
  let c =
    ok_exn (Fullc.Compile.compile ~validate:false env pe.Workload.Paper_example.fragments)
  in
  let qv = c.Core.State.query_views in
  let good = A.Select (C.Is_of "Employee", persons) in
  (match Query.Unfold.client_query env qv good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "type test directly over a scan should unfold: %s" e);
  let bad = A.Select (C.Is_of "Employee", A.project_cols [ "Id" ] persons) in
  match Query.Unfold.client_query env qv bad with
  | Ok q -> Alcotest.failf "expected a type-erasing error, got %a" A.pp q
  | Error e ->
      checkb "names the type test" true (contains ~sub:"IS OF Employee" e);
      checkb "names the erasing operator" true (contains ~sub:"type-erasing" e)

let () =
  Alcotest.run "query"
    [
      ( "eval",
        [
          Alcotest.test_case "entity scan" `Quick test_entity_scan;
          Alcotest.test_case "type conditions" `Quick test_type_conditions;
          Alcotest.test_case "projection constants" `Quick test_project_consts;
          Alcotest.test_case "joins" `Quick test_joins;
          Alcotest.test_case "null join keys" `Quick test_join_null_no_match;
          Alcotest.test_case "full outer join" `Quick test_full_outer_join;
          Alcotest.test_case "join rows, exactly" `Quick test_join_rows_exact;
          Alcotest.test_case "union all" `Quick test_union_all;
          Alcotest.test_case "inference errors" `Quick test_infer_errors;
          Alcotest.test_case "inference messages" `Quick test_infer_messages;
        ] );
      ( "infer",
        [
          Alcotest.test_case "customer subterms match the oracle" `Quick test_infer_oracle_customer;
          Alcotest.test_case "random pipelines match the oracle" `Quick test_infer_oracle_random;
          Alcotest.test_case "join chains type in linear space" `Quick test_chain_typing_linear;
        ] );
      ( "cond",
        [
          prop_dnf_equivalent;
          prop_simplify_equivalent;
          prop_simplify_shares;
          prop_negate_complements;
          Alcotest.test_case "helpers" `Quick test_cond_helpers;
        ] );
      ( "simplify",
        [
          Alcotest.test_case "semantics preserved" `Quick test_simplify_queries;
          Alcotest.test_case "contradiction folding" `Quick test_simplify_contradictions;
          prop_simplify_cond_equivalent;
          prop_unsat_is_cond_false;
        ] );
      ( "pretty", [ Alcotest.test_case "rendering" `Quick test_pretty ] );
      ( "unfold",
        [ Alcotest.test_case "type test above a type-erasing projection" `Quick
            test_unfold_type_erasing_error ] );
      ( "ctor",
        [
          Alcotest.test_case "evaluation" `Quick test_ctor_eval;
          Alcotest.test_case "guards" `Quick test_ctor_guard;
          Alcotest.test_case "dead final else" `Quick test_ctor_dead_final_else;
          prop_ctor_branches;
        ] );
    ]
