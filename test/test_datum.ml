open Common

let test_domain_subsumes () =
  checkb "int subsumes int" true (D.subsumes ~wide:D.Int ~narrow:D.Int);
  checkb "decimal subsumes int" true (D.subsumes ~wide:D.Decimal ~narrow:D.Int);
  checkb "int does not subsume decimal" false (D.subsumes ~wide:D.Int ~narrow:D.Decimal);
  checkb "string does not subsume int" false (D.subsumes ~wide:D.String ~narrow:D.Int)

let test_value_member () =
  checkb "null member of any domain" true (V.member V.Null D.Bool);
  checkb "int member of int" true (V.member (V.Int 3) D.Int);
  checkb "int member of decimal" true (V.member (V.Int 3) D.Decimal);
  checkb "string not member of int" false (V.member (V.String "x") D.Int)

let test_value_literals () =
  check Alcotest.string "null" "NULL" (V.to_literal V.Null);
  check Alcotest.string "string quoted" "'hi'" (V.to_literal (V.String "hi"));
  check Alcotest.string "bool" "True" (V.to_literal (V.Bool true));
  check Alcotest.string "int" "42" (V.to_literal (V.Int 42))

(* A Decimal prints with the digits that read back as it and a decimal
   point, so no printer rounds it or turns it into an Int. *)
let test_decimal_literals () =
  List.iter
    (fun (f, s) -> check Alcotest.string s s (V.to_literal (V.Decimal f)))
    [ (1.0, "1.0"); (1.0000001, "1.0000001"); (0.1, "0.1"); (-2.5, "-2.5"); (1e20, "1e+20");
      (123456789.0, "123456789.0") ];
  check Alcotest.string "an update sets the exact value"
    "UPDATE TLow SET W = 1.0000001 WHERE Id = 2;\n"
    (Dml.Translate.to_sql
       [ Dml.Translate.Update_row
           { table = "TLow"; key = Datum.Row.of_list [ ("Id", V.Int 2) ];
             changes = [ ("W", V.Decimal 1.0000001) ] } ]);
  let cond = C.Cmp ("W", C.Gt, V.Decimal 1.0) in
  check Alcotest.string "a condition shows its Decimal" "W > 1.0" (C.show cond);
  checkb "and reads back as a Decimal" true
    (match Surface.Parser.condition (C.show cond) with
    | Ok c -> C.equal c cond
    | Error e -> Alcotest.failf "W > 1.0 does not parse: %s" e)

let test_row_basics () =
  let r = row [ ("b", V.Int 2); ("a", V.Int 1) ] in
  check (Alcotest.list Alcotest.string) "sorted columns" [ "a"; "b" ] (Datum.Row.columns r);
  checkb "find present" true (Datum.Row.find "a" r = Some (V.Int 1));
  checkb "find missing" true (Datum.Row.find "z" r = None)

let test_row_project () =
  let r = row [ ("a", V.Int 1); ("b", V.Int 2); ("c", V.Int 3) ] in
  let p = Datum.Row.project [ "a"; "c"; "zz" ] r in
  check (Alcotest.list Alcotest.string) "project drops absent" [ "a"; "c" ] (Datum.Row.columns p)

let test_row_union_bias () =
  let a = row [ ("k", V.Int 1) ] and b = row [ ("k", V.Int 2); ("l", V.Int 3) ] in
  let u = Datum.Row.union a b in
  checkb "left wins" true (V.equal (Datum.Row.get "k" u) (V.Int 1));
  checkb "right-only kept" true (V.equal (Datum.Row.get "l" u) (V.Int 3))

let prop_row_roundtrip =
  qtest "of_list/to_list roundtrip" ~count:100
    QCheck.(list (pair (oneofl [ "a"; "b"; "c"; "d" ]) (map (fun i -> V.Int i) small_int)))
    (fun bindings ->
      let r = Datum.Row.of_list bindings in
      Datum.Row.equal r (Datum.Row.of_list (Datum.Row.to_list r)))

let prop_project_subset =
  qtest "projection yields subset of columns" ~count:100
    QCheck.(
      pair
        (list (pair (oneofl [ "a"; "b"; "c" ]) (map (fun i -> V.Int i) small_int)))
        (list (oneofl [ "a"; "b"; "z" ])))
    (fun (bindings, cols) ->
      let r = Datum.Row.of_list bindings in
      let p = Datum.Row.project cols r in
      List.for_all (fun c -> List.mem c cols && Datum.Row.find c r <> None) (Datum.Row.columns p))

let () =
  Alcotest.run "datum"
    [
      ( "domain",
        [
          Alcotest.test_case "subsumes" `Quick test_domain_subsumes;
          Alcotest.test_case "member" `Quick test_value_member;
          Alcotest.test_case "literals" `Quick test_value_literals;
          Alcotest.test_case "Decimal literals read back" `Quick test_decimal_literals;
        ] );
      ( "row",
        [
          Alcotest.test_case "basics" `Quick test_row_basics;
          Alcotest.test_case "project" `Quick test_row_project;
          Alcotest.test_case "union bias" `Quick test_row_union_bias;
          prop_row_roundtrip;
          prop_project_subset;
        ] );
    ]
