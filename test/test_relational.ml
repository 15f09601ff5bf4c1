open Common

let store = Workload.Paper_example.stage4.env.Query.Env.store
let sample = Workload.Paper_example.sample_store

let test_table_ops () =
  let tbl = Relational.Schema.get_table store "Client" in
  check Alcotest.(list string) "columns" [ "Cid"; "Eid"; "Name"; "Score"; "Addr" ]
    (Relational.Table.column_names tbl);
  checkb "key not nullable" false (Relational.Table.nullable tbl "Cid");
  checkb "Eid nullable" true (Relational.Table.nullable tbl "Eid");
  checkb "unknown column not nullable" false (Relational.Table.nullable tbl "Zz");
  check Alcotest.(list string) "non-key columns" [ "Eid"; "Name"; "Score"; "Addr" ]
    (Relational.Table.non_key_columns tbl);
  checkb "domain_of" true (Relational.Table.domain_of tbl "Score" = Some D.Int)

let test_schema_ops () = check_rebuilds_store "paper store" store

(* [add_table] and [replace_table] refuse what [of_tables] refuses: each
   edit below would leave a foreign key that does not hold. *)
let test_schema_well_formed_negative () =
  let is_error what r = checkb what true (Result.is_error r) in
  let fk ref_table ref_columns = { Relational.Table.fk_columns = [ "Id" ]; ref_table; ref_columns } in
  let table name ?(fks = []) d = Relational.Table.make ~name ~key:[ "Id" ] ~fks [ ("Id", d, `Not_null) ] in
  is_error "fk to unknown table"
    (Relational.Schema.add_table (table "T" ~fks:[ fk "Missing" [ "Id" ] ] D.Int) Relational.Schema.empty);
  is_error "fk not targeting full key"
    (Relational.Schema.add_table (table "U" ~fks:[ fk "Client" [ "Eid" ] ] D.Int) store);
  is_error "fk domain mismatch"
    (Relational.Schema.add_table (table "W" ~fks:[ fk "HR" [ "Id" ] ] D.String) store);
  is_error "a new definition breaks a foreign key into it"
    (Relational.Schema.replace_table (table "HR" D.String) store);
  is_error "a table that is not there" (Relational.Schema.replace_table (table "Nope" D.Int) store);
  is_error "a table twice" (Relational.Schema.of_tables [ table "T" D.Int; table "T" D.Int ]);
  checkb "a self-reference" true
    (Result.is_ok
       (Relational.Schema.add_table (table "S" ~fks:[ fk "S" [ "Id" ] ] D.Int) Relational.Schema.empty))

let test_instance_conforms () =
  check_ok "sample conforms" (Relational.Instance.conforms store sample);
  let missing_col =
    Relational.Instance.add_row ~table:"HR" (row [ ("Id", V.Int 9) ]) Relational.Instance.empty
  in
  check_error "row missing column" (Relational.Instance.conforms store missing_col);
  let null_in_required =
    Relational.Instance.add_row ~table:"HR"
      (row [ ("Id", V.Null); ("Name", V.String "x") ])
      Relational.Instance.empty
  in
  check_error "null in non-nullable" (Relational.Instance.conforms store null_in_required);
  let dup =
    Relational.Instance.empty
    |> Relational.Instance.add_row ~table:"HR" (row [ ("Id", V.Int 1); ("Name", V.String "a") ])
    |> Relational.Instance.add_row ~table:"HR" (row [ ("Id", V.Int 1); ("Name", V.String "b") ])
  in
  check_error "duplicate key" (Relational.Instance.conforms store dup)

let test_instance_fks () =
  let dangling =
    Relational.Instance.add_row ~table:"Emp"
      (row [ ("Id", V.Int 77); ("Dept", V.String "x") ])
      sample
  in
  check_error "dangling Emp.Id -> HR.Id" (Relational.Instance.conforms store dangling);
  (* NULL foreign keys are exempt (simple match): Client.Eid of Fay is NULL. *)
  check_ok "null fk exempt" (Relational.Instance.conforms store sample);
  let bad_eid =
    Relational.Instance.add_row ~table:"Client"
      (row
         [ ("Cid", V.Int 9); ("Eid", V.Int 99); ("Name", V.String "x"); ("Score", V.Int 1);
           ("Addr", V.String "a") ])
      sample
  in
  check_error "dangling Client.Eid" (Relational.Instance.conforms store bad_eid)

let test_instance_equal () =
  let a =
    Relational.Instance.set_rows ~table:"HR"
      [ row [ ("Id", V.Int 1); ("Name", V.String "a") ]; row [ ("Id", V.Int 2); ("Name", V.String "b") ] ]
      Relational.Instance.empty
  in
  let b =
    Relational.Instance.set_rows ~table:"HR"
      [
        row [ ("Id", V.Int 2); ("Name", V.String "b") ];
        row [ ("Id", V.Int 1); ("Name", V.String "a") ];
        row [ ("Id", V.Int 1); ("Name", V.String "a") ];
      ]
      Relational.Instance.empty
  in
  checkb "order- and duplicate-insensitive" true (Relational.Instance.equal a b);
  checkb "empty table equals missing table" true
    (Relational.Instance.equal Relational.Instance.empty
       (Relational.Instance.set_rows ~table:"HR" [] Relational.Instance.empty))

(* -- value arrays ------------------------------------------------------------ *)

let names = [| "A"; "B"; "C" |]
let layouts = [| [| "x"; "y"; "z" |]; [| "z"; "w"; "x" |] |]

type op = Set of int * Datum.Row.t list | Add of int * Datum.Row.t

let show_op = function
  | Set (i, rs) -> Printf.sprintf "set %s [%s]" names.(i) (String.concat "; " (List.map Datum.Row.show rs))
  | Add (i, r) -> Printf.sprintf "add %s %s" names.(i) (Datum.Row.show r)

(* Rows over some of the columns the layouts name, and one they do not. *)
let gen_row =
  QCheck.Gen.(
    map row
      (list_size (int_bound 3)
         (pair (oneofl [ "w"; "x"; "y"; "q" ])
            (frequency [ (1, return V.Null); (4, map (fun n -> V.Int n) (int_bound 5)) ]))))

let gen_op =
  QCheck.Gen.(
    oneof
      [ map2 (fun i rs -> Set (i, rs)) (int_bound 2) (list_size (int_bound 4) gen_row);
        map2 (fun i r -> Add (i, r)) (int_bound 2) gen_row ])

let arb_ops =
  QCheck.make ~print:(fun ops -> String.concat "\n" (List.map show_op ops))
    QCheck.Gen.(list_size (int_bound 12) gen_op)

let same_arrays = List.equal (Array.for_all2 (fun u v -> V.compare u v = 0))
let oracle t table layout = List.map (Datum.Row.values layout) (Relational.Instance.rows t ~table)

(* After each step of a random [set_rows]/[add_row] sequence, every
   table's [values] is the conversion of its rows, in each of two layouts
   asked for in turn; a table the step left alone keeps its arrays [==];
   and the arrays change neither [equal] nor [pp]. *)
let prop_values =
  qtest "values ≡ converted rows" arb_ops (fun ops ->
      let module I = Relational.Instance in
      let step t op =
        let touched, t' =
          match op with
          | Set (i, rs) -> (i, I.set_rows ~table:names.(i) rs t)
          | Add (i, r) -> (i, I.add_row ~table:names.(i) r t)
        in
        Array.iteri
          (fun i table ->
            let before = I.values t ~table layouts.(0) in
            let vs = I.values t' ~table layouts.(0) in
            if i <> touched && vs != before then
              QCheck.Test.fail_reportf "%s: left alone, converted again" table;
            Array.iter
              (fun layout ->
                if not (same_arrays (I.values t' ~table layout) (oracle t' table layout)) then
                  QCheck.Test.fail_reportf "%s: values differ from the converted rows" table)
              layouts)
          names;
        let fresh =
          List.fold_left (fun acc table -> I.set_rows ~table (I.rows t' ~table) acc) I.empty (I.tables t')
        in
        let shown i = Format.asprintf "%a" I.pp i in
        if not (I.equal fresh t' && shown fresh = shown t') then
          QCheck.Test.fail_reportf "the arrays change equal or pp";
        t'
      in
      ignore (List.fold_left step I.empty ops);
      true)

let () =
  Alcotest.run "relational"
    [
      ( "schema",
        [
          Alcotest.test_case "table ops" `Quick test_table_ops;
          Alcotest.test_case "schema ops" `Quick test_schema_ops;
          Alcotest.test_case "well-formed negatives" `Quick test_schema_well_formed_negative;
        ] );
      ( "instance",
        [
          Alcotest.test_case "conforms" `Quick test_instance_conforms;
          Alcotest.test_case "foreign keys" `Quick test_instance_fks;
          Alcotest.test_case "equality" `Quick test_instance_equal;
          prop_values;
        ] );
    ]
