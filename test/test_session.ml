open Common
module P = Workload.Paper_example
module S = Core.Session

let employee = Edm.Entity_type.derived ~name:"Employee" ~parent:"Person" [ ("Department", D.String) ]

let emp_table =
  Relational.Table.make ~name:"Emp" ~key:[ "Id" ]
    ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
    [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null) ]

let smo_employee =
  Core.Smo.Add_entity
    { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person"; table = emp_table;
      fmap = [ ("Id", "Id"); ("Department", "Dept") ] }

let smo_property =
  Core.Smo.Add_property
    { etype = "Employee"; attr = ("Level", D.Int);
      target = Core.Add_property.To_existing_table { table = "Emp"; column = "Level" } }

let smo_grade =
  Core.Smo.Add_property
    { etype = "Employee"; attr = ("Grade", D.Int);
      target = Core.Add_property.To_existing_table { table = "Emp"; column = "Grade" } }

let fresh_session () =
  S.start (ok_exn (Core.State.bootstrap P.stage1.P.env P.stage1.P.fragments))

let has_type s ty = Edm.Schema.mem_type (S.current s).Core.State.env.Query.Env.client ty

let has_attr s attr =
  Edm.Schema.attribute_domain (S.current s).Core.State.env.Query.Env.client "Employee" attr <> None

(* The history a session keeps, read through its public surface: it undoes
   once per accepted SMO, and its log names each applied SMO, oldest first. *)
let undo_depth s =
  let rec go n s = match S.undo s with None -> n | Some s -> go (n + 1) s in
  go 0 s

let applied_labels s =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"applied" line then Some (Scanf.sscanf line "applied %s@(" Fun.id)
      else None)
    (String.split_on_char '\n' (S.log s))

let test_apply_and_history () =
  let s = fresh_session () in
  let s = ok_v (S.apply s smo_employee) in
  let s = ok_v (S.apply s smo_property) in
  check Alcotest.int "two entries" 2 (undo_depth s);
  check (Alcotest.list Alcotest.string) "labels in order" [ "AE-TPT"; "AP" ] (applied_labels s);
  checkb "schema evolved" true (has_type s "Employee")

let test_failed_apply_keeps_session () =
  let s = fresh_session () in
  let bad =
    Core.Smo.Drop_entity { etype = "Person" } (* roots cannot be dropped *)
  in
  (match S.apply s bad with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error _ -> ());
  check Alcotest.int "history unchanged" 0 (undo_depth s);
  check (Alcotest.list Alcotest.string) "nothing logged" [] (applied_labels s)

let test_undo_redo () =
  let s = fresh_session () in
  let s = ok_v (S.apply s smo_employee) in
  let s = ok_v (S.apply s smo_property) in
  let s = Option.get (S.undo s) in
  checkb "property undone" true
    (Edm.Schema.attribute_domain (S.current s).Core.State.env.Query.Env.client "Employee" "Level"
    = None);
  let s = Option.get (S.undo s) in
  checkb "employee undone" false (has_type s "Employee");
  checkb "cannot undo past the start" true (S.undo s = None);
  let s = Option.get (S.redo s) in
  checkb "employee redone" true (has_type s "Employee");
  let s = ok_v (S.apply s smo_property) in
  checkb "redo trail cleared by a new apply" true (S.redo s = None)

let test_checkpoints () =
  let s = fresh_session () in
  let s = ok_v (S.apply s smo_employee) in
  let s = S.checkpoint ~name:"with-employee" s in
  let s = ok_v (S.apply s smo_property) in
  let s = ok_exn (S.rollback_to ~name:"with-employee" s) in
  checkb "back at the checkpoint" true (has_type s "Employee");
  checkb "later SMO rolled back" true
    (Edm.Schema.attribute_domain (S.current s).Core.State.env.Query.Env.client "Employee" "Level"
    = None);
  checkb "unknown checkpoint" true (Result.is_error (S.rollback_to ~name:"nope" s));
  let log = S.log s in
  List.iter
    (fun sub -> checkb ("log mentions " ^ sub) true (contains ~sub log))
    [ "applied"; "AE-TPT"; "checkpoint with-employee"; "rollback  -> with-employee" ]

(* A checkpoint names a state: once that state has left the history, the
   rollback fails instead of landing on whatever sits at the same depth. *)
let expect_gone msg s name =
  match S.rollback_to ~name s with
  | Ok s' ->
      Alcotest.failf "%s: rolled back to a state %s Level and %s Grade" msg
        (if has_attr s' "Level" then "with" else "without")
        (if has_attr s' "Grade" then "with" else "without")
  | Error e -> checkb (msg ^ ": the error names the checkpoint") true (contains ~sub:name e)

let test_checkpoint_replaced () =
  let s = ok_v (S.apply (fresh_session ()) smo_employee) in
  let s = ok_v (S.apply s smo_property) in
  let s = S.checkpoint ~name:"c" s in
  let s = ok_v (S.apply (Option.get (S.undo s)) smo_grade) in
  expect_gone "undone and replaced" s "c";
  (* while the checkpointed state is in the history, rollback lands on it *)
  let s = ok_v (S.apply (fresh_session ()) smo_employee) in
  let s = S.checkpoint ~name:"c" (ok_v (S.apply s smo_property)) in
  let marked = S.current s in
  let s = ok_v (S.apply s smo_grade) in
  checkb "rollback lands on the checkpointed state" true
    (S.current (ok_exn (S.rollback_to ~name:"c" s)) == marked)

let test_checkpoint_undone () =
  let s = S.checkpoint ~name:"c" (ok_v (S.apply (fresh_session ()) smo_employee)) in
  let s = Option.get (S.undo s) in
  expect_gone "undone below the checkpoint" s "c";
  (* redo brings the state back into reach *)
  let s = Option.get (S.redo s) in
  let s = ok_v (S.apply s smo_property) in
  checkb "back at Employee without Level" true
    (let s = ok_exn (S.rollback_to ~name:"c" s) in
     has_type s "Employee" && not (has_attr s "Level"))

(* Re-marking a name moves it to the present state, and other names keep
   theirs: rollback lands on the newest mark of a name, an older name still
   reaches its own state, and a re-mark whose state is later undone away
   fails like any checkpoint left behind. *)
let test_checkpoint_remarked () =
  let s = S.checkpoint ~name:"first" (ok_v (S.apply (fresh_session ()) smo_employee)) in
  let first = S.current s in
  let s = S.checkpoint ~name:"c" s in
  let s = ok_v (S.apply s smo_property) in
  let s = S.checkpoint ~name:"c" s in
  let marked = S.current s in
  let s = ok_v (S.apply s smo_grade) in
  let back = ok_exn (S.rollback_to ~name:"c" s) in
  checkb "rollback lands on the newest mark" true (S.current back == marked);
  checkb "the other name keeps its state" true
    (S.current (ok_exn (S.rollback_to ~name:"first" s)) == first);
  (* many names, each re-marked once, on one state: every lookup still hits *)
  let names = List.init 2_000 (fun i -> Printf.sprintf "n%d" i) in
  let many = List.fold_left (fun s name -> S.checkpoint ~name s) back names in
  let many = List.fold_left (fun s name -> S.checkpoint ~name s) many names in
  checkb "every re-marked name rolls back" true
    (List.for_all (fun name -> Result.is_ok (S.rollback_to ~name many)) names);
  let s = Option.get (S.undo (S.checkpoint ~name:"c" (ok_v (S.apply many smo_grade)))) in
  expect_gone "re-marked, then undone away" (ok_v (S.apply s smo_grade)) "c";
  checkb "unknown name" true (Result.is_error (S.rollback_to ~name:"nope" many))

(* -- query / data / dml surface forms ---------------------------------------- *)

let env4 = P.stage4.P.env

let test_query_surface () =
  let q = ok_exn (Surface.Parser.query env4 "select Id, Name as N from Persons where is of Employee") in
  let rows =
    Query.Eval.rows_set env4 (Query.Eval.client_db P.sample_client) q
  in
  check Alcotest.int "two employees" 2 (List.length rows);
  checkb "renamed column" true (List.for_all (fun r -> Datum.Row.find "N" r <> None) rows);
  (* select * excludes the $type pseudo-column. *)
  let star = ok_exn (Surface.Parser.query env4 "select * from Supports") in
  let rows = Query.Eval.rows_set env4 (Query.Eval.client_db P.sample_client) star in
  check Alcotest.int "one link" 1 (List.length rows);
  checkb "unknown source rejected" true
    (Result.is_error (Surface.Parser.query env4 "select * from Nowhere"));
  checkb "unknown column rejected" true
    (Result.is_error (Surface.Parser.query env4 "select Zz from Persons"))

let test_data_surface () =
  let text =
    {|data {
        Persons: Person (Id = 1, Name = "Ana");
        Persons: Employee (Id = 2, Name = "Bob", Department = "Sales");
        Supports: (Customer.Id = 3, Employee.Id = 2);
        Persons: Customer (Id = 3, Name = "Cyd", CredScore = 1, BillAddr = "x");
      }|}
  in
  let inst = ok_exn (Surface.Parser.data env4 text) in
  check Alcotest.int "three entities" 3 (List.length (Edm.Instance.entities inst ~set:"Persons"));
  check Alcotest.int "one link" 1 (List.length (Edm.Instance.links inst ~assoc:"Supports"));
  (* Non-conforming data is rejected. *)
  let dangling = {|data { Supports: (Customer.Id = 9, Employee.Id = 9); }|} in
  checkb "dangling link rejected" true (Result.is_error (Surface.Parser.data env4 dangling))

let test_dml_surface () =
  let text =
    {|insert Persons Employee (Id = 10, Name = "Hal", Department = "IT");
      update Persons (Id = 1) set (Name = "Anya");
      delete Persons (Id = 2);
      link Supports (Customer.Id = 6, Employee.Id = 3);
      unlink Supports (Customer.Id = 5, Employee.Id = 4);|}
  in
  let delta = ok_exn (Surface.Parser.dml env4 text) in
  check Alcotest.int "five operations" 5 (List.length delta);
  let out = ok_exn (Dml.Delta.apply env4.Query.Env.client P.sample_client delta) in
  check Alcotest.int "entity count" 6 (List.length (Edm.Instance.entities out ~set:"Persons"))

let () =
  Alcotest.run "session"
    [
      ( "session",
        [
          Alcotest.test_case "apply and history" `Quick test_apply_and_history;
          Alcotest.test_case "failed apply" `Quick test_failed_apply_keeps_session;
          Alcotest.test_case "undo/redo" `Quick test_undo_redo;
          Alcotest.test_case "checkpoints and log" `Quick test_checkpoints;
          Alcotest.test_case "checkpoint undone and replaced" `Quick test_checkpoint_replaced;
          Alcotest.test_case "checkpoint undone away" `Quick test_checkpoint_undone;
          Alcotest.test_case "checkpoint re-marked" `Quick test_checkpoint_remarked;
        ] );
      ( "query/data/dml surface",
        [
          Alcotest.test_case "queries" `Quick test_query_surface;
          Alcotest.test_case "data blocks" `Quick test_data_surface;
          Alcotest.test_case "dml scripts" `Quick test_dml_surface;
        ] );
    ]
