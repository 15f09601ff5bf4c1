(* Differential tests for the IVM translation path: on the paper example and
   on random models with random delta streams, [Dml.Translate.ivm_step] must
   produce byte-identical scripts and equal store states to the full-diff
   oracle, batch after batch against the same evolving client state. *)

open Common
module P = Workload.Paper_example
module Delta = Dml.Delta
module Tr = Dml.Translate

let env = P.stage4.P.env

let compiled =
  lazy
    (match Fullc.Compile.compile env P.stage4.P.fragments with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile failed: %s" e)

let uv () = (Lazy.force compiled).Core.State.update_views

(* Both paths on one delta, from one client state.  Returns the new client so
   sequences can thread it. *)
let check_both_paths ?(msg = "delta") env uv ~old_client ~delta =
  let full = Tr.full_diff env uv ~old_client ~delta in
  let ivm = Tr.translate env uv ~old_client ~delta in
  match (full, ivm) with
  | Error a, Error b ->
      check Alcotest.string (msg ^ ": same error") a b;
      None
  | Ok _, Error e -> Alcotest.failf "%s: ivm failed where full-diff succeeded: %s" msg e
  | Error e, Ok _ -> Alcotest.failf "%s: full-diff failed where ivm succeeded: %s" msg e
  | Ok (s_full, c_full, st_full), Ok (s_ivm, c_ivm, st_ivm) ->
      check Alcotest.string (msg ^ ": identical script") (Tr.to_sql s_full) (Tr.to_sql s_ivm);
      checkb (msg ^ ": equal store") true (Relational.Instance.equal st_full st_ivm);
      checkb (msg ^ ": equal client") true (Edm.Instance.equal c_full c_ivm);
      Some c_full

let test_paper_one_shot () =
  let deltas =
    [
      ( "employee insert + dept update",
        [
          Delta.Insert_entity
            { set = "Persons";
              entity =
                Edm.Instance.entity ~etype:"Employee"
                  [ ("Id", V.Int 10); ("Name", V.String "Hal"); ("Department", V.String "IT") ] };
          Delta.Update_entity
            { set = "Persons"; key = row [ ("Id", V.Int 3) ];
              changes = [ ("Department", V.String "Legal") ] };
        ] );
      ( "customer insert",
        [
          Delta.Insert_entity
            { set = "Persons";
              entity =
                Edm.Instance.entity ~etype:"Customer"
                  [ ("Id", V.Int 11); ("Name", V.String "Kim"); ("CredScore", V.Int 7);
                    ("BillAddr", V.String "Elm St") ] };
        ] );
      ( "link insert",
        [
          Delta.Insert_link
            { assoc = "Supports";
              link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 3) ] };
        ] );
      ( "unlink then delete",
        [
          Delta.Delete_link
            { assoc = "Supports";
              link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] };
          Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 5) ] };
        ] );
      ( "rename root person",
        [
          Delta.Update_entity
            { set = "Persons"; key = row [ ("Id", V.Int 1) ];
              changes = [ ("Name", V.String "Anya") ] };
        ] );
    ]
  in
  List.iter
    (fun (msg, delta) ->
      ignore (check_both_paths ~msg env (uv ()) ~old_client:P.sample_client ~delta))
    deltas

(* The persistent handle across a whole delta stream: ivm_init once, then
   every step must match a fresh full-diff translate from the same state. *)
let test_paper_handle_stream () =
  let uv = uv () in
  let stream =
    [
      [ Delta.Insert_entity
          { set = "Persons";
            entity =
              Edm.Instance.entity ~etype:"Employee"
                [ ("Id", V.Int 20); ("Name", V.String "Lee"); ("Department", V.String "Ops") ] } ];
      [ Delta.Insert_link
          { assoc = "Supports";
            link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 20) ] } ];
      [ Delta.Update_entity
          { set = "Persons"; key = row [ ("Id", V.Int 20) ];
            changes = [ ("Department", V.String "R&D") ] };
        Delta.Update_entity
          { set = "Persons"; key = row [ ("Id", V.Int 6) ];
            changes = [ ("CredScore", V.Int 99) ] } ];
      [ Delta.Delete_link
          { assoc = "Supports";
            link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 20) ] } ];
      [ Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 20) ] } ];
    ]
  in
  let inc = ref (ok_exn (Tr.ivm_init env uv P.sample_client)) in
  let client = ref P.sample_client in
  List.iteri
    (fun i delta ->
      let msg = Printf.sprintf "step %d" i in
      let s_full, new_client, st_full =
        ok_exn (Tr.full_diff env uv ~old_client:!client ~delta)
      in
      let s_ivm, inc' = ok_exn (Tr.ivm_step !inc delta) in
      check Alcotest.string (msg ^ ": identical script") (Tr.to_sql s_full) (Tr.to_sql s_ivm);
      checkb (msg ^ ": equal store") true
        (Relational.Instance.equal st_full (Tr.ivm_store inc'));
      client := new_client;
      inc := inc')
    stream

(* Every guard of [Ivm.Apply], by its full message. *)
let test_handle_guards () =
  let uv = uv () in
  let inc = ok_exn (Tr.ivm_init env uv P.sample_client) in
  let expect_error msg expected delta =
    match Tr.ivm_step inc delta with
    | Ok _ -> Alcotest.failf "%s: expected an error" msg
    | Error e -> check Alcotest.string msg expected e
  in
  expect_error "duplicate key" "insert: key {Id=(Int 1)} already present in Persons"
    [ Delta.Insert_entity
        { set = "Persons";
          entity = Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "x") ] } ];
  expect_error "missing delete" "delete: no entity with key {Id=(Int 77)} in Persons"
    [ Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 77) ] } ];
  expect_error "immutable key" "update: key attribute Id is immutable"
    [ Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 1) ]; changes = [ ("Id", V.Int 2) ] } ];
  expect_error "unknown attribute" "update: Person has no attribute Department"
    [ Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 1) ];
          changes = [ ("Department", V.String "x") ] } ];
  expect_error "duplicate link" "link already present in Supports"
    [ Delta.Insert_link
        { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] } ];
  expect_error "missing link" "unlink: no such tuple in Supports"
    [ Delta.Delete_link
        { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 3) ] } ]

(* [ivm_init] applies the guards of a step from the empty state, so an
   instance that breaks a step guard fails to materialize, with that
   guard's message; [Edm.Instance] itself accepts both. *)
let test_init_guards () =
  let uv = uv () in
  let expect_error msg expected client =
    match Tr.ivm_init env uv client with
    | Ok _ -> Alcotest.failf "%s: expected an error" msg
    | Error e -> check Alcotest.string msg expected e
  in
  expect_error "duplicate entity key" "insert: key {Id=(Int 1)} already present in Persons"
    (Edm.Instance.add_entity ~set:"Persons"
       (Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "Ann") ])
       P.sample_client);
  expect_error "duplicate link" "link already present in Supports"
    (Edm.Instance.add_link ~assoc:"Supports"
       (row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ])
       P.sample_client)

(* -- init is the step from empty ------------------------------------------ *)

(* A whole instance as inserts, entities first: the batch whose step from
   the empty state [Ivm.Apply.init] equals. *)
let instance_ops schema inst =
  List.concat_map
    (fun (set, _) ->
      List.map
        (fun e -> Delta.Insert_entity { set; entity = e })
        (Edm.Instance.entities inst ~set))
    (Edm.Schema.entity_sets schema)
  @ List.concat_map
      (fun (a : Edm.Association.t) ->
        List.map
          (fun link -> Delta.Insert_link { assoc = a.Edm.Association.name; link })
          (Edm.Instance.links inst ~assoc:a.Edm.Association.name))
      (Edm.Schema.associations schema)

(* [f ()] and the [ivm.rows.*] counter deltas it caused. *)
let rows_ticked f =
  let before = Obs.Metric.snapshot () in
  let r = f () in
  let d = Obs.Metric.diff before (Obs.Metric.snapshot ()) in
  (r, List.filter (fun (c, _) -> String.starts_with ~prefix:"ivm.rows." c) d.Obs.Metric.counters)

(* [Ivm.Apply.init] against the step that inserts the whole instance into
   the empty state, [init]'s oracle: equal base images, query counts and
   join groups (as maps, whatever their shape), equal store images, and
   each operator ticking the same rows. *)
let check_init_is_step ~fail (plan : Ivm.Plan.t) inst =
  let schema = plan.Ivm.Plan.env.Query.Env.client in
  let init, init_rows = rows_ticked (fun () -> Ivm.Apply.init plan inst) in
  let step, step_rows =
    rows_ticked (fun () -> Ivm.Apply.step plan (Ivm.State.empty plan) (instance_ops schema inst))
  in
  let show rows = String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "%s %d" c n) rows) in
  match (init, step) with
  | Error e, _ | _, Error e -> fail e
  | Ok st_init, Ok (_, st_step) ->
      if not (Ivm_all_tables.equal_states st_init st_step) then fail "init state differs from the step's"
      else if not (Relational.Instance.equal (Ivm.State.store st_init) (Ivm.State.store st_step)) then
        fail "init store image differs from the step's"
      else if init_rows <> step_rows then
        fail (Printf.sprintf "rows ticked: init %s; step %s" (show init_rows) (show step_rows))

let test_init_is_step () =
  let fail msg what = Alcotest.failf "%s: %s" msg what in
  check_init_is_step ~fail:(fail "paper stage 4") (ok_exn (Ivm.Plan.compile env (uv ()))) P.sample_client;
  let cenv, cfrags = Workload.Customer.generate () in
  let cuv = (ok_exn (Fullc.Compile.compile ~validate:false cenv cfrags)).Core.State.update_views in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 cenv.Query.Env.client in
  check_init_is_step ~fail:(fail "customer") (ok_exn (Ivm.Plan.compile cenv cuv)) inst

(* -- NULL join keys ------------------------------------------------------ *)

(* Hand-built update views over the paper's client schema whose joins see
   NULL keys (Department is NULL on non-employees and BillAddr on
   non-customers), several rows per key, and no key at all.  The IVM group
   join takes its unmatched-rows branch for every NULL-keyed group, and for
   the keyless join whenever Supports is empty.  Shared's inputs project the
   key away, so a key group holds one row several times and its join output
   and query rows have multiplicities above 1.  Absent joins on [B], which
   its inner left join leaves out of every row it passes through unmatched:
   those rows' key is absent, reads NULL and groups with the NULL keys. *)
let null_key_env, null_key_uv =
  let table name key cols =
    Relational.Table.make ~name ~key (List.map (fun (c, d) -> (c, d, `Null)) cols)
  in
  let store =
    List.fold_left
      (fun s t -> ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [
        table "Foj" [ "A"; "B" ] [ ("A", D.Int); ("B", D.Int); ("K", D.String) ];
        table "Loj" [ "B"; "A" ] [ ("A", D.Int); ("B", D.Int); ("K", D.String) ];
        table "Cross" [ "A"; "C" ] [ ("A", D.Int); ("C", D.Int) ];
        table "Shared" [ "K" ] [ ("K", D.String) ];
        table "Absent" [ "A"; "B" ] [ ("A", D.Int); ("K", D.String); ("B", D.Int); ("N", D.String) ];
      ]
  in
  let persons = A.Scan (A.Entity_set "Persons") in
  let by_dept = A.Project ([ A.col_as "Id" "A"; A.col_as "Department" "K" ], persons) in
  let by_addr = A.Project ([ A.col_as "Id" "B"; A.col_as "BillAddr" "K" ], persons) in
  let employees = A.Select (C.Is_of "Employee", persons) in
  let supported = A.Project ([ A.col_as "Customer.Id" "C" ], A.Scan (A.Assoc_set "Supports")) in
  ( Query.Env.make ~client:env.Query.Env.client ~store,
    Query.View.no_update_views
    |> Query.View.set_table_view "Foj" (A.Join (Query.Join.Full, by_dept, by_addr, [ "K" ]))
    |> Query.View.set_table_view "Loj"
         (A.Join
            ( Query.Join.Left,
              by_addr,
              A.Project ([ A.col_as "Id" "A"; A.col_as "Department" "K" ], employees),
              [ "K" ] ))
    |> Query.View.set_table_view "Cross"
         (A.Join (Query.Join.Left, A.Project ([ A.col_as "Id" "A" ], employees), supported, []))
    |> Query.View.set_table_view "Shared"
         (A.Join
            ( Query.Join.Inner,
              A.Project ([ A.col_as "Department" "K" ], employees),
              A.Project ([ A.col_as "BillAddr" "K" ], persons),
              [ "K" ] ))
    |> Query.View.set_table_view "Absent"
         (A.Join
            ( Query.Join.Full,
              A.Join (Query.Join.Left, by_dept, by_addr, [ "K" ]),
              A.Project ([ A.col_as "Id" "B"; A.col_as "Name" "N" ], persons),
              [ "B" ] )) )

let test_null_join_keys () =
  let person id =
    Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int id); ("Name", V.String "p") ]
  in
  let employee id dept =
    Edm.Instance.entity ~etype:"Employee"
      [ ("Id", V.Int id); ("Name", V.String "e"); ("Department", dept) ]
  in
  let customer id addr =
    Edm.Instance.entity ~etype:"Customer"
      [ ("Id", V.Int id); ("Name", V.String "c"); ("CredScore", V.Int 1); ("BillAddr", addr) ]
  in
  let insert e = Delta.Insert_entity { set = "Persons"; entity = e } in
  let update id a v =
    Delta.Update_entity { set = "Persons"; key = row [ ("Id", V.Int id) ]; changes = [ (a, v) ] }
  in
  let delete id = Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int id) ] } in
  let link c e = row [ ("Customer.Id", V.Int c); ("Employee.Id", V.Int e) ] in
  let d1 = V.String "D1" and d2 = V.String "D2" in
  let client0 =
    List.fold_left
      (fun inst e -> Edm.Instance.add_entity ~set:"Persons" e inst)
      Edm.Instance.empty
      [ person 1; employee 2 d1; employee 3 d1; employee 4 V.Null; customer 5 d1;
        customer 6 V.Null; customer 7 d2 ]
  in
  let stream =
    [
      ( "inserts into NULL and shared keys",
        [ insert (person 8); insert (employee 9 d2); insert (employee 10 V.Null);
          insert (customer 11 d1); insert (customer 12 V.Null) ] );
      ( "first link: keyless join leaves padding",
        [ Delta.Insert_link { assoc = "Supports"; link = link 5 2 } ] );
      ( "keys move to and from NULL",
        [ update 2 "Department" V.Null; update 4 "Department" d1; update 6 "BillAddr" d2;
          update 11 "BillAddr" V.Null; update 9 "Department" d1 ] );
      ("second link", [ Delta.Insert_link { assoc = "Supports"; link = link 7 3 } ]);
      ( "deletes empty a key group",
        [ delete 8; delete 12; delete 10; update 7 "BillAddr" V.Null ] );
      ( "unlinking all: keyless join back to padding",
        [ Delta.Delete_link { assoc = "Supports"; link = link 5 2 };
          Delta.Delete_link { assoc = "Supports"; link = link 7 3 } ] );
      ("delete the last shared-key rows", [ delete 3; delete 4; delete 9; delete 5 ]);
    ]
  in
  let inc = ref (ok_exn (Tr.ivm_init null_key_env null_key_uv client0)) in
  let client = ref client0 in
  let plan = ok_exn (Ivm.Plan.compile null_key_env null_key_uv) in
  check_init_is_step ~fail:(Alcotest.failf "init: %s") plan client0;
  List.iter
    (fun (msg, delta) ->
      let s_full, new_client, st_full =
        ok_exn (Tr.full_diff null_key_env null_key_uv ~old_client:!client ~delta)
      in
      check_init_is_step ~fail:(Alcotest.failf "%s: init: %s" msg) plan new_client;
      let s_ivm, inc' = ok_exn (Tr.ivm_step !inc delta) in
      checkb (msg ^ ": changes the store") true (s_full <> []);
      check Alcotest.string (msg ^ ": identical script") (Tr.to_sql s_full) (Tr.to_sql s_ivm);
      checkb (msg ^ ": equal store") true (Relational.Instance.equal st_full (Tr.ivm_store inc'));
      client := new_client;
      inc := inc')
    stream

(* -- index-probe scans ----------------------------------------------------- *)

(* Hand-built update views that select one key value, on an entity set's key
   and on an association column: the planner turns each selection into an
   [Index_eq] scan, which IVM applies as the [col = 5] selection it came
   from.  Ops on key 5 change the tables; ops on other keys change nothing. *)
let index_env, index_uv =
  let table name key cols =
    Relational.Table.make ~name ~key (List.map (fun (c, d) -> (c, d, `Null)) cols)
  in
  let store =
    List.fold_left
      (fun s t -> ok_exn (Relational.Schema.add_table t s))
      Relational.Schema.empty
      [
        table "Five" [ "Id" ] [ ("Id", D.Int); ("Name", D.String) ];
        table "FiveLinks" [ "C"; "E" ] [ ("C", D.Int); ("E", D.Int) ];
      ]
  in
  ( Query.Env.make ~client:env.Query.Env.client ~store,
    Query.View.no_update_views
    |> Query.View.set_table_view "Five"
         (A.Select
            ( C.Cmp ("Id", C.Eq, V.Int 5),
              A.Project ([ A.col "Id"; A.col "Name" ], A.Scan (A.Entity_set "Persons")) ))
    |> Query.View.set_table_view "FiveLinks"
         (A.Project
            ( [ A.col_as "Customer.Id" "C"; A.col_as "Employee.Id" "E" ],
              A.Select (C.Cmp ("Customer.Id", C.Eq, V.Int 5), A.Scan (A.Assoc_set "Supports")) )) )

let test_index_scans () =
  let plan = ok_exn (Ivm.Plan.compile index_env index_uv) in
  List.iter
    (fun (tp : Ivm.Plan.table_plan) ->
      check Alcotest.int (tp.Ivm.Plan.table ^ ": one index scan") 1
        (Exec.Plan.index_scans tp.Ivm.Plan.root))
    plan.Ivm.Plan.tables;
  let person id name =
    Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int id); ("Name", V.String name) ]
  in
  let customer id =
    Edm.Instance.entity ~etype:"Customer"
      [ ("Id", V.Int id); ("Name", V.String "c"); ("CredScore", V.Int 1);
        ("BillAddr", V.String "a") ]
  in
  let insert e = Delta.Insert_entity { set = "Persons"; entity = e } in
  let rename id name =
    Delta.Update_entity
      { set = "Persons"; key = row [ ("Id", V.Int id) ]; changes = [ ("Name", V.String name) ] }
  in
  let delete id = Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int id) ] } in
  let link c e = row [ ("Customer.Id", V.Int c); ("Employee.Id", V.Int e) ] in
  let client0 =
    List.fold_left
      (fun inst e -> Edm.Instance.add_entity ~set:"Persons" e inst)
      Edm.Instance.empty
      [ person 1 "a"; person 2 "b"; customer 6;
        Edm.Instance.entity ~etype:"Employee"
          [ ("Id", V.Int 3); ("Name", V.String "e"); ("Department", V.String "D") ] ]
  in
  let stream =
    [
      ("insert key 5 and key 7", true, [ insert (customer 5); insert (person 7 "g") ]);
      ( "link key 5 and key 6", true,
        [ Delta.Insert_link { assoc = "Supports"; link = link 5 3 };
          Delta.Insert_link { assoc = "Supports"; link = link 6 3 } ] );
      ("update key 5 and key 1", true, [ rename 5 "five"; rename 1 "one" ]);
      ( "other keys only", false,
        [ rename 2 "two"; insert (person 8 "h"); delete 7;
          Delta.Delete_link { assoc = "Supports"; link = link 6 3 } ] );
      ( "unlink and delete key 5", true,
        [ Delta.Delete_link { assoc = "Supports"; link = link 5 3 }; delete 5; delete 8 ] );
    ]
  in
  let inc = ref (ok_exn (Tr.ivm_init index_env index_uv client0)) in
  let client = ref client0 in
  List.iter
    (fun (msg, changes, delta) ->
      let s_full, new_client, st_full =
        ok_exn (Tr.full_diff index_env index_uv ~old_client:!client ~delta)
      in
      let s_ivm, inc' = ok_exn (Tr.ivm_step !inc delta) in
      checkb (msg ^ ": changes the store") changes (s_full <> []);
      check Alcotest.string (msg ^ ": identical script") (Tr.to_sql s_full) (Tr.to_sql s_ivm);
      checkb (msg ^ ": equal store") true (Relational.Instance.equal st_full (Tr.ivm_store inc'));
      client := new_client;
      inc := inc')
    stream

(* -- random models × random delta streams --------------------------------- *)

let profile =
  { Workload.Random_model.hierarchies = 2; max_types = 3; max_depth = 2; max_attrs = 2; assocs = 1 }

(* Candidate ops over the current instance; invalid ones (dup keys, linked
   deletes, multiplicity violations ...) are filtered below by the oracle's
   own [Delta.apply], so the surviving batch is valid by construction. *)
let candidate_ops rs schema inst fresh =
  let pick l = if l = [] then None else Some (List.nth l (Random.State.int rs (List.length l))) in
  let sets = Edm.Schema.entity_sets schema in
  let entities_of set = Edm.Instance.entities inst ~set in
  let ops = ref [] in
  let add op = ops := op :: !ops in
  (* update a non-key attribute of a random entity *)
  (match pick sets with
  | Some (set, root) -> (
      match pick (entities_of set) with
      | Some e ->
          let keyattrs = Edm.Schema.key_of schema root in
          let mutables =
            List.filter
              (fun (a, _) -> not (List.mem a keyattrs))
              (Edm.Schema.attributes schema e.Edm.Instance.etype)
          in
          (match pick mutables with
          | Some (a, dom) ->
              add
                (Delta.Update_entity
                   { set;
                     key = Datum.Row.project keyattrs e.Edm.Instance.attrs;
                     changes = [ (a, Roundtrip.Generate.value_for rs dom) ] })
          | None -> ())
      | None -> ())
  | None -> ());
  (* insert a fresh entity of a random concrete type *)
  (match pick sets with
  | Some (set, root) -> (
      match pick (Edm.Schema.subtypes schema root) with
      | Some ty ->
          let keyattrs = Edm.Schema.key_of schema root in
          let attrs =
            List.fold_left
              (fun r (a, dom) ->
                let v =
                  if List.mem a keyattrs then
                    match dom with
                    | Datum.Domain.Int -> V.Int fresh
                    | dom -> Roundtrip.Generate.value_for rs dom
                  else Roundtrip.Generate.value_for rs dom
                in
                Datum.Row.add a v r)
              Datum.Row.empty
              (Edm.Schema.attributes schema ty)
          in
          add (Delta.Insert_entity { set; entity = { Edm.Instance.etype = ty; attrs } })
      | None -> ())
  | None -> ());
  (* delete a random entity (only survives if unlinked) *)
  (match pick sets with
  | Some (set, root) -> (
      match pick (entities_of set) with
      | Some e ->
          let keyattrs = Edm.Schema.key_of schema root in
          add (Delta.Delete_entity { set; key = Datum.Row.project keyattrs e.Edm.Instance.attrs })
      | None -> ())
  | None -> ());
  (* toggle a link of a random association *)
  (match pick (Edm.Schema.associations schema) with
  | Some a -> (
      let existing = Edm.Instance.links inst ~assoc:a.Edm.Association.name in
      match pick existing with
      | Some link when Random.State.bool rs ->
          add (Delta.Delete_link { assoc = a.Edm.Association.name; link })
      | _ -> (
          let participants ety =
            match Edm.Schema.set_of_type schema ety with
            | None -> []
            | Some set ->
                List.filter
                  (fun (e : Edm.Instance.entity) ->
                    Edm.Schema.is_subtype schema ~sub:e.etype ~sup:ety)
                  (entities_of set)
          in
          match (pick (participants a.Edm.Association.end1), pick (participants a.Edm.Association.end2)) with
          | Some e1, Some e2 ->
              let side ety (e : Edm.Instance.entity) =
                List.map
                  (fun k ->
                    (Edm.Association.qualify ~etype:ety k, Datum.Row.get k e.attrs))
                  (Edm.Schema.key_of schema ety)
              in
              add
                (Delta.Insert_link
                   { assoc = a.Edm.Association.name;
                     link =
                       Datum.Row.of_list
                         (side a.Edm.Association.end1 e1 @ side a.Edm.Association.end2 e2) })
          | _ -> ()))
  | None -> ());
  List.rev !ops

(* Keep the ops that apply cleanly in sequence (each validated by the
   full-diff path's own [Delta.apply] against the intermediate state). *)
let valid_batch schema inst candidates =
  List.fold_left
    (fun (inst, acc) op ->
      match Delta.apply schema inst [ op ] with
      | Ok inst' -> (inst', op :: acc)
      | Error _ -> (inst, acc))
    (inst, []) candidates
  |> fun (_, acc) -> List.rev acc

(* The key map of [rows] (ascending) on [slot], built afresh. *)
let key_map slot rows =
  List.fold_right
    (fun r m ->
      match Datum.Tuple.get r slot with
      | V.Null -> m
      | v -> Datum.Value.Map.update v (fun l -> Some (r :: Option.value ~default:[] l)) m)
    rows Datum.Value.Map.empty

let sign_split layout d =
  let part p =
    Ivm.Multiset.fold (fun r n acc -> if p n then Datum.Row.of_values layout r :: acc else acc) d []
    |> List.sort Datum.Row.compare
  in
  (part (fun n -> n < 0), part (fun n -> n > 0))

(* The skipping engine against [Ivm_all_tables] after one step from equal
   states: equal states, equal non-empty deltas, and a store image whose
   every table lists the rows of its counts and whose key map indexes
   exactly those rows. *)
let check_skip ~fail (plan : Ivm.Plan.t) ~store (skip_deltas, st_skip) (all_deltas, st_all) =
  let non_empty =
    List.filter (fun (_, removed, added) -> removed <> [] || added <> [])
  in
  let skip =
    non_empty
      (List.map
         (fun (d : Ivm.Apply.table_delta) -> (d.Ivm.Apply.table, d.removed, d.added))
         skip_deltas)
  in
  let all =
    non_empty
      (List.map
         (fun (t, d) ->
           let r, a = sign_split (Ivm.State.image st_all t).Relational.Instance.layout d in
           (t, r, a))
         all_deltas)
  in
  let same_rows = List.equal Datum.Row.equal in
  if not (Ivm_all_tables.equal_states st_skip st_all) then fail "state differs from every-table propagation"
  else if
    not
      (List.equal
         (fun (t, r, a) (t', r', a') -> t = t' && same_rows r r' && same_rows a a')
         skip all)
  then fail "deltas differ from every-table propagation"
  else if
    Relational.Instance.tables store
    <> List.map (fun (tp : Ivm.Plan.table_plan) -> tp.Ivm.Plan.table) plan.Ivm.Plan.tables
    || not
         (List.for_all
            (fun (tp : Ivm.Plan.table_plan) ->
              let table = tp.Ivm.Plan.table in
              let img = Ivm.State.image st_skip table in
              let rows =
                Ivm.Multiset.fold (fun r n acc -> if n > 0 then r :: acc else acc) img.Relational.Instance.counts []
                |> List.rev
              in
              same_rows
                (Relational.Instance.rows store ~table)
                (List.map (Datum.Row.of_values tp.Ivm.Plan.layout) rows)
              && Option.equal
                   (fun (i, m) (j, n) -> i = j && Datum.Value.Map.equal (List.equal ( == )) m n)
                   img.key
                   (Option.map (fun slot -> (slot, key_map slot rows)) tp.Ivm.Plan.key))
            plan.Ivm.Plan.tables)
  then fail "store image differs from the tables' counts"

let run_differential_case seed =
  let env, fragments = Workload.Random_model.generate ~profile ~seed () in
  let schema = env.Query.Env.client in
  match Fullc.Compile.compile ~validate:false env fragments with
  | Error e -> QCheck.Test.fail_reportf "seed %d: compile failed: %s" seed e
  | Ok c ->
      let uv = c.Core.State.update_views in
      let inst0 = Roundtrip.Generate.instance ~seed ~entities_per_set:4 schema in
      let rs = Random.State.make [| seed; 0xD17A |] in
      let inc =
        match Tr.ivm_init env uv inst0 with
        | Ok inc -> inc
        | Error e -> QCheck.Test.fail_reportf "seed %d: ivm_init failed: %s" seed e
      in
      let plan =
        match Ivm.Plan.compile env uv with
        | Ok plan -> plan
        | Error e -> QCheck.Test.fail_reportf "seed %d: plan failed: %s" seed e
      in
      (* Both engines from the empty state, then step by step beside the
         handle: each step's skip check reads the handle's store image. *)
      let both tag st_skip st_all ops ~store_of =
        let fail what = QCheck.Test.fail_reportf "seed %d %s: %s" seed tag what in
        match (Ivm.Apply.step plan st_skip ops, Ivm_all_tables.step plan st_all ops) with
        | Error e, _ | _, Error e -> fail e
        | Ok ((_, st_skip') as skip), Ok ((_, st_all') as all) ->
            check_skip ~fail plan ~store:(store_of st_skip') skip all;
            (st_skip', st_all')
      in
      check_init_is_step ~fail:(QCheck.Test.fail_reportf "seed %d init: %s" seed) plan inst0;
      Store_reads.check env uv ~client:inst0 (Tr.ivm_store inc)
        ~fail:(QCheck.Test.fail_reportf "seed %d init: %s" seed);
      let empty = Ivm.State.empty plan in
      let st0 =
        both "init" empty empty (instance_ops schema inst0) ~store_of:Ivm.State.store
      in
      let rec go batch inst inc (st_skip, st_all) =
        if batch >= 4 then true
        else
          let delta = valid_batch schema inst (candidate_ops rs schema inst (100_000 + batch)) in
          match
            ( Tr.full_diff env uv ~old_client:inst ~delta,
              Tr.ivm_step inc delta )
          with
          | Error e, _ ->
              QCheck.Test.fail_reportf "seed %d batch %d: full-diff failed: %s" seed batch e
          | _, Error e ->
              QCheck.Test.fail_reportf "seed %d batch %d: ivm failed: %s" seed batch e
          | Ok (s_full, new_client, st_full), Ok (s_ivm, inc') ->
              if Tr.to_sql s_full <> Tr.to_sql s_ivm then
                QCheck.Test.fail_reportf "seed %d batch %d: scripts differ:@.%s@.vs@.%s" seed
                  batch (Tr.to_sql s_full) (Tr.to_sql s_ivm)
              else if not (Relational.Instance.equal st_full (Tr.ivm_store inc')) then
                QCheck.Test.fail_reportf "seed %d batch %d: stores differ" seed batch
              else
                let () =
                  Store_reads.check env uv ~client:new_client (Tr.ivm_store inc')
                    ~fail:(QCheck.Test.fail_reportf "seed %d batch %d: %s" seed batch)
                in
                let sts =
                  both (Printf.sprintf "batch %d" batch) st_skip st_all delta
                    ~store_of:(fun _ -> Tr.ivm_store inc')
                in
                go (batch + 1) new_client inc' sts
      in
      go 0 inst0 inc st0

let prop_differential =
  qtest "ivm ≡ full-diff on random models and delta streams" ~count:220
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    run_differential_case

(* -- one plan for both runtimes ------------------------------------------- *)

(* Every table plan IVM maintains is the plan [Exec.Planner] gives its
   view. *)
let check_planner_roots msg env uv =
  let plan = ok_exn (Ivm.Plan.compile env uv) in
  let views = Query.View.update_view_bindings uv in
  check Alcotest.(list string) (msg ^ ": one plan per view") (List.map fst views)
    (List.map (fun (tp : Ivm.Plan.table_plan) -> tp.Ivm.Plan.table) plan.Ivm.Plan.tables);
  List.iter
    (fun (tp : Ivm.Plan.table_plan) ->
      let q = List.assoc tp.Ivm.Plan.table views in
      checkb
        (Printf.sprintf "%s: %s is the planner's plan" msg tp.Ivm.Plan.table)
        true
        (tp.Ivm.Plan.root = ok_exn (Exec.Planner.plan env q)))
    plan.Ivm.Plan.tables

(* A view must yield exactly its table's columns: the table's image keeps
   its rows in the table's layout. *)
let test_view_columns () =
  let persons = A.Scan (A.Entity_set "Persons") in
  let refused uv =
    match Ivm.Plan.compile env uv with
    | Ok _ -> false
    | Error e -> String.ends_with ~suffix:"not the table's columns" e
  in
  checkb "a view missing a column" true
    (refused (Query.View.set_table_view "HR" (A.project_cols [ "Id" ] persons) (uv ())));
  checkb "a view with an extra column" true
    (refused
       (Query.View.set_table_view "HR" (A.project_cols [ "Id"; "Name"; "CredScore" ] persons) (uv ())));
  checkb "the stage-4 views" false (refused (uv ()))

let test_planner_roots () =
  check_planner_roots "paper stage 4" env (uv ());
  let cenv, cfrags = Workload.Customer.generate () in
  check_planner_roots "customer" cenv
    (ok_exn (Fullc.Compile.compile ~validate:false cenv cfrags)).Core.State.update_views;
  for seed = 0 to 29 do
    let renv, frags = Workload.Random_model.generate ~profile ~seed () in
    match Fullc.Compile.compile ~validate:false renv frags with
    | Ok c -> check_planner_roots (Printf.sprintf "seed %d" seed) renv c.Core.State.update_views
    | Error e -> Alcotest.failf "seed %d: compile failed: %s" seed e
  done

(* Both runtimes run each table plan on one client instance: [Exec.Run]
   over an indexed client database, made a set, gives the table image
   [Ivm.Engine.init] builds.  The image lists its rows in array order, so
   they are sorted (not deduplicated) before the comparison. *)
let check_two_runtimes msg env uv inst =
  let plan = ok_exn (Ivm.Plan.compile env uv) in
  let store = Ivm.State.store (ok_exn (Ivm.Apply.init plan inst)) in
  let idb = Exec.Idb.make env (Query.Eval.client_db inst) in
  List.iter
    (fun (tp : Ivm.Plan.table_plan) ->
      let table = tp.Ivm.Plan.table in
      let exec_rows = List.sort_uniq Datum.Row.compare (Exec.Run.rows idb tp.Ivm.Plan.root) in
      checkb
        (Printf.sprintf "%s: %s has exec's rows" msg table)
        true
        (List.equal Datum.Row.equal exec_rows
           (List.sort Datum.Row.compare (Relational.Instance.rows store ~table))))
    plan.Ivm.Plan.tables

let test_two_runtimes () =
  check_two_runtimes "paper stage 4" env (uv ()) P.sample_client;
  let cenv, cfrags = Workload.Customer.generate () in
  let cuv = (ok_exn (Fullc.Compile.compile ~validate:false cenv cfrags)).Core.State.update_views in
  check_two_runtimes "customer" cenv cuv
    (Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:20 cenv.Query.Env.client);
  for seed = 0 to 29 do
    let renv, frags = Workload.Random_model.generate ~profile ~seed () in
    match Fullc.Compile.compile ~validate:false renv frags with
    | Ok c ->
        check_two_runtimes (Printf.sprintf "seed %d" seed) renv c.Core.State.update_views
          (Roundtrip.Generate.instance ~seed ~entities_per_set:5 renv.Query.Env.client)
    | Error e -> Alcotest.failf "seed %d: compile failed: %s" seed e
  done

(* -- sharing: a write reaches only its tables ---------------------------- *)

(* The [tables] attribute of the one [ivm.propagate] span that [f] opens. *)
let tables_visited f =
  Obs.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable f in
  let visited =
    Obs.Span.fold_all
      (fun acc sp ->
        if Obs.Span.name sp = "ivm.propagate" then List.assoc_opt "tables" (Obs.Span.attrs sp) :: acc
        else acc)
      []
  in
  Obs.reset ();
  (r, visited)

(* serve's customer instance (seed 2013, 300 entities per set).  Inserting
   an entity of a set's root type visits exactly the plans that read the
   set, changes one table, and every other table keeps its row list,
   physically: once into a set that one table reads, once into the set
   that the most tables read (a TPT hierarchy, so the other plans it
   reaches change nothing). *)
let test_write_touches_its_tables () =
  let env, frags = Workload.Customer.generate () in
  let uv = (ok_exn (Fullc.Compile.compile ~validate:false env frags)).Core.State.update_views in
  let schema = env.Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:300 schema in
  let plan = ok_exn (Ivm.Plan.compile env uv) in
  let inc = ok_exn (Tr.ivm_init env uv inst) in
  let readers set = List.length (Ivm.Plan.readers plan (A.Entity_set set)) in
  let sets = Edm.Schema.entity_sets schema in
  let narrow =
    match List.find_opt (fun (set, _) -> readers set = 1) sets with
    | Some s -> s
    | None -> Alcotest.fail "customer has no entity set read by one table"
  in
  let wide =
    List.fold_left (fun best s -> if readers (fst s) > readers (fst best) then s else best) narrow sets
  in
  let rs = Random.State.make [| 2013 |] in
  List.iter
    (fun (set, root) ->
      let key = Edm.Schema.key_of schema root in
      let attrs =
        List.map
          (fun (a, dom) ->
            if List.mem a key then (a, V.Int 1_000_000) else (a, Roundtrip.Generate.value_for rs dom))
          (Edm.Schema.attributes schema root)
      in
      let delta = [ Delta.Insert_entity { set; entity = Edm.Instance.entity ~etype:root attrs } ] in
      let (script, inc'), visited = tables_visited (fun () -> ok_exn (Tr.ivm_step inc delta)) in
      check Alcotest.(list (option string)) (set ^ ": plans visited")
        [ Some (string_of_int (readers set)) ] visited;
      let table =
        match script with
        | [ Tr.Insert_row { table; _ } ] -> table
        | _ -> Alcotest.failf "%s: expected one INSERT, got@.%s" set (Tr.to_sql script)
      in
      let before = Tr.ivm_store inc and after = Tr.ivm_store inc' in
      check Alcotest.(list string) (set ^ ": same tables") (Relational.Instance.tables before)
        (Relational.Instance.tables after);
      List.iter
        (fun t ->
          let shared =
            Relational.Instance.rows before ~table:t == Relational.Instance.rows after ~table:t
          in
          checkb (Printf.sprintf "%s: %s %s" set t (if t = table then "re-listed" else "shares its row list"))
            (t <> table) shared)
        (Relational.Instance.tables before);
      check Alcotest.int (set ^ ": one row more in " ^ table)
        (List.length (Relational.Instance.rows before ~table) + 1)
        (List.length (Relational.Instance.rows after ~table)))
    [ narrow; wide ];
  checkb "the widest set is read by many tables" true (readers (fst wide) > 1)

let () =
  Alcotest.run "ivm"
    [
      ( "paper example",
        [
          Alcotest.test_case "one-shot translate modes agree" `Quick test_paper_one_shot;
          Alcotest.test_case "handle stream matches oracle" `Quick test_paper_handle_stream;
          Alcotest.test_case "handle guards" `Quick test_handle_guards;
          Alcotest.test_case "init guards" `Quick test_init_guards;
          Alcotest.test_case "init ≡ step from empty" `Quick test_init_is_step;
          Alcotest.test_case "NULL and keyless join keys" `Quick test_null_join_keys;
          Alcotest.test_case "index-probe scans" `Quick test_index_scans;
        ] );
      ( "planner",
        [
          Alcotest.test_case "table plans are the planner's plans" `Quick test_planner_roots;
          Alcotest.test_case "one plan, two runtimes" `Quick test_two_runtimes;
          Alcotest.test_case "a view yields its table's columns" `Quick test_view_columns;
        ] );
      ( "customer",
        [ Alcotest.test_case "a write touches only its tables" `Quick test_write_touches_its_tables ] );
      ("differential", [ prop_differential ]);
    ]
