open Common
module P = Workload.Paper_example
module Delta = Dml.Delta
module Tr = Dml.Translate

let env = P.stage4.P.env
let client = env.Query.Env.client

let compiled =
  lazy
    (match Fullc.Compile.compile env P.stage4.P.fragments with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile failed: %s" e)

let uv () = (Lazy.force compiled).Fullc.Compile.update_views
let qv () = (Lazy.force compiled).Fullc.Compile.query_views

(* -- delta semantics --------------------------------------------------------- *)

let test_delta_insert_update_delete () =
  let inst = P.sample_client in
  let delta =
    [
      Delta.Insert_entity
        { set = "Persons";
          entity = Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 9); ("Name", V.String "Gil") ] };
      Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 1) ];
          changes = [ ("Name", V.String "Anya") ] };
      Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 2) ] };
    ]
  in
  let out = ok_exn (Delta.apply client inst delta) in
  let persons = Edm.Instance.entities out ~set:"Persons" in
  check Alcotest.int "count" 6 (List.length persons);
  checkb "updated name" true
    (List.exists
       (fun (e : Edm.Instance.entity) ->
         V.equal (Datum.Row.get "Id" e.attrs) (V.Int 1)
         && V.equal (Datum.Row.get "Name" e.attrs) (V.String "Anya"))
       persons)

(* A delete, an update and an unlink swap one population: every other entity
   set's and association's list is the input's own. *)
let test_delta_keeps_other_populations () =
  let schema = (fst (Workload.Customer.generate ())).Query.Env.client in
  let inst = Roundtrip.Generate.instance ~seed:7 ~entities_per_set:6 schema in
  let sets = List.map fst (Edm.Schema.entity_sets schema) in
  let assocs = List.map (fun (a : Edm.Association.t) -> a.name) (Edm.Schema.associations schema) in
  let kept msg ?set ?assoc out =
    List.iter
      (fun s ->
        if Some s <> set then
          checkb (Printf.sprintf "%s: %s kept" msg s) true
            (Edm.Instance.entities out ~set:s == Edm.Instance.entities inst ~set:s))
      sets;
    List.iter
      (fun a ->
        if Some a <> assoc then
          checkb (Printf.sprintf "%s: %s kept" msg a) true
            (Edm.Instance.links out ~assoc:a == Edm.Instance.links inst ~assoc:a))
      assocs
  in
  let entities =
    List.concat_map
      (fun set -> List.map (fun e -> (set, e)) (Edm.Instance.entities inst ~set))
      sets
  in
  let key_of (e : Edm.Instance.entity) =
    Datum.Row.project (Edm.Schema.key_of schema e.etype) e.attrs
  in
  (* the first entity no association references *)
  let set, out =
    Option.get
      (List.find_map
         (fun (set, e) ->
           Result.to_option
             (Result.map (fun out -> (set, out))
                (Delta.apply schema inst [ Delta.Delete_entity { set; key = key_of e } ])))
         entities)
  in
  kept "delete" ~set out;
  let set, e, (attr, d) =
    Option.get
      (List.find_map
         (fun (set, (e : Edm.Instance.entity)) ->
           let key = Edm.Schema.key_of schema e.etype in
           List.find_opt (fun (a, _) -> not (List.mem a key)) (Edm.Schema.attributes schema e.etype)
           |> Option.map (fun a -> (set, e, a)))
         entities)
  in
  let v = Roundtrip.Generate.value_for (Random.State.make [| 1 |]) d in
  let delta = [ Delta.Update_entity { set; key = key_of e; changes = [ (attr, v) ] } ] in
  kept "update" ~set (ok_exn (Delta.apply schema inst delta));
  let assoc, link =
    Option.get
      (List.find_map
         (fun a ->
           match Edm.Instance.links inst ~assoc:a with l :: _ -> Some (a, l) | [] -> None)
         assocs)
  in
  kept "unlink" ~assoc (ok_exn (Delta.apply schema inst [ Delta.Delete_link { assoc; link } ]))

let test_delta_guards () =
  let inst = P.sample_client in
  let dup =
    [ Delta.Insert_entity
        { set = "Persons";
          entity = Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "x") ] } ]
  in
  check_error "duplicate key insert" (Result.map (fun _ -> ()) (Delta.apply client inst dup));
  check_error "delete missing"
    (Result.map (fun _ -> ())
       (Delta.apply client inst [ Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 77) ] } ]));
  check_error "update key attribute"
    (Result.map (fun _ -> ())
       (Delta.apply client inst
          [ Delta.Update_entity
              { set = "Persons"; key = row [ ("Id", V.Int 1) ]; changes = [ ("Id", V.Int 2) ] } ]));
  check_error "update unknown attribute"
    (Result.map (fun _ -> ())
       (Delta.apply client inst
          [ Delta.Update_entity
              { set = "Persons"; key = row [ ("Id", V.Int 1) ];
                changes = [ ("Department", V.String "x") ] } ]));
  (* Eve (5) is linked via Supports: deletion requires the link to go first. *)
  check_error "delete linked entity"
    (Result.map (fun _ -> ())
       (Delta.apply client inst [ Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 5) ] } ]));
  let ok_seq =
    [
      Delta.Delete_link
        { assoc = "Supports";
          link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] };
      Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 5) ] };
    ]
  in
  checkb "unlink then delete" true (Result.is_ok (Delta.apply client inst ok_seq))

(* -- translation ---------------------------------------------------------------- *)

let test_translate_simple () =
  let delta =
    [
      Delta.Insert_entity
        { set = "Persons";
          entity =
            Edm.Instance.entity ~etype:"Employee"
              [ ("Id", V.Int 10); ("Name", V.String "Hal"); ("Department", V.String "IT") ] };
      Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 3) ];
          changes = [ ("Department", V.String "Legal") ] };
    ]
  in
  let script, _new_client, new_store =
    ok_exn (Tr.translate env (uv ()) ~old_client:P.sample_client ~delta)
  in
  (* The TPT employee insert splits into HR + Emp inserts; the department
     change touches Emp only. *)
  let inserts = List.filter (function Tr.Insert_row _ -> true | _ -> false) script in
  let updates = List.filter (function Tr.Update_row _ -> true | _ -> false) script in
  check Alcotest.int "two inserts" 2 (List.length inserts);
  check Alcotest.int "one update" 1 (List.length updates);
  (match updates with
  | [ Tr.Update_row { table; changes; _ } ] ->
      check Alcotest.string "update hits Emp" "Emp" table;
      check Alcotest.int "single column" 1 (List.length changes)
  | _ -> Alcotest.fail "unexpected update shape");
  (* HR insert precedes Emp insert (foreign-key order). *)
  (match inserts with
  | [ Tr.Insert_row { table = t1; _ }; Tr.Insert_row { table = t2; _ } ] ->
      check Alcotest.string "parent first" "HR" t1;
      check Alcotest.string "child second" "Emp" t2
  | _ -> Alcotest.fail "unexpected insert shape");
  (* Applying the script to the old store yields the new store. *)
  let old_store = ok_exn (Query.View.apply_update_views env (uv ()) P.sample_client) in
  let applied = ok_exn (Tr.apply_script old_store script) in
  checkb "script reproduces the new store" true (Relational.Instance.equal applied new_store)

let test_translate_link_ops () =
  let delta =
    [
      Delta.Insert_link
        { assoc = "Supports";
          link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 3) ] };
    ]
  in
  let script, _, _ = ok_exn (Tr.translate env (uv ()) ~old_client:P.sample_client ~delta) in
  (* A foreign-key association insert becomes an UPDATE of the owning row. *)
  match script with
  | [ Tr.Update_row { table = "Client"; key; changes } ] ->
      checkb "keyed by Cid" true (V.equal (Datum.Row.get "Cid" key) (V.Int 6));
      checkb "sets Eid" true
        (List.exists (fun (c, v) -> c = "Eid" && V.equal v (V.Int 3)) changes)
  | _ -> Alcotest.failf "unexpected script:@.%s" (Tr.to_sql script)

let test_sql_rendering () =
  let script =
    [
      Tr.Insert_row { table = "HR"; row = row [ ("Id", V.Int 1); ("Name", V.String "x") ] };
      Tr.Update_row { table = "Emp"; key = row [ ("Id", V.Int 1) ];
                      changes = [ ("Dept", V.String "S") ] };
      Tr.Delete_row { table = "HR"; key = row [ ("Id", V.Int 1) ] };
    ]
  in
  let sql = Tr.to_sql script in
  List.iter
    (fun sub -> checkb sub true (contains ~sub sql))
    [
      "INSERT INTO HR (Id, Name) VALUES (1, 'x');";
      "UPDATE Emp SET Dept = 'S' WHERE Id = 1;";
      "DELETE FROM HR WHERE Id = 1;";
    ]

let shape script =
  List.map
    (function
      | Tr.Delete_row { table; _ } -> ("delete", table)
      | Tr.Update_row { table; _ } -> ("update", table)
      | Tr.Insert_row { table; _ } -> ("insert", table))
    script

(* The whole-store diff pins its documented cross-table ordering on the
   paper's FK chain HR <- Emp <- Client, whose name order is the reverse
   of its FK order: deletes children first (Client, Emp, HR), then updates
   and inserts parents first (HR, Emp, Client) -- the order apply_script
   needs for a store with enforced foreign keys.  One delta deletes, updates
   and inserts one row of each table. *)
let test_diff_stores_fk_topology () =
  let employee id name dept =
    Edm.Instance.entity ~etype:"Employee"
      [ ("Id", V.Int id); ("Name", V.String name); ("Department", V.String dept) ]
  in
  let customer id name =
    Edm.Instance.entity ~etype:"Customer"
      [ ("Id", V.Int id); ("Name", V.String name); ("CredScore", V.Int 1); ("BillAddr", V.String "a") ]
  in
  let key id = row [ ("Id", V.Int id) ] in
  let delta =
    [
      Delta.Delete_link { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] };
      Delta.Delete_entity { set = "Persons"; key = key 5 };
      Delta.Delete_entity { set = "Persons"; key = key 3 };
      Delta.Update_entity { set = "Persons"; key = key 1; changes = [ ("Name", V.String "Anya") ] };
      Delta.Update_entity { set = "Persons"; key = key 4; changes = [ ("Department", V.String "Ops") ] };
      Delta.Update_entity { set = "Persons"; key = key 6; changes = [ ("CredScore", V.Int 650) ] };
      Delta.Insert_entity { set = "Persons"; entity = employee 7 "Gil" "Sales" };
      Delta.Insert_entity { set = "Persons"; entity = customer 8 "Hal" };
    ]
  in
  let script, _, new_store = ok_exn (Tr.full_diff env (uv ()) ~old_client:P.sample_client ~delta) in
  check
    Alcotest.(list (pair string string))
    "referenced tables' deletes last, inserts first"
    [
      ("delete", "Client"); ("delete", "Emp"); ("delete", "HR");
      ("update", "HR"); ("update", "Emp"); ("update", "Client");
      ("insert", "HR"); ("insert", "Emp"); ("insert", "Client");
    ]
    (shape script);
  (* and that order actually replays against a store with those FKs *)
  let old_store = ok_exn (Query.View.apply_update_views env (uv ()) P.sample_client) in
  let final = ok_exn (Tr.apply_script old_store script) in
  checkb "replays to the new store" true (Relational.Instance.equal final new_store)

(* -- the "exactly the effect of U" property -------------------------------------- *)

let gen_delta =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    let* n = int_range 100 120 in
    return
      (match kind with
      | 0 ->
          [ Delta.Insert_entity
              { set = "Persons";
                entity =
                  Edm.Instance.entity ~etype:"Person"
                    [ ("Id", V.Int n); ("Name", V.String "new") ] } ]
      | 1 ->
          [ Delta.Insert_entity
              { set = "Persons";
                entity =
                  Edm.Instance.entity ~etype:"Customer"
                    [ ("Id", V.Int n); ("Name", V.String "c"); ("CredScore", V.Int 1);
                      ("BillAddr", V.String "a") ] } ]
      | 2 ->
          [ Delta.Update_entity
              { set = "Persons"; key = Datum.Row.of_list [ ("Id", V.Int 1) ];
                changes = [ ("Name", V.String "renamed") ] } ]
      | _ ->
          [ Delta.Delete_link
              { assoc = "Supports";
                link =
                  Datum.Row.of_list [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] } ]))

let prop_exact_effect =
  qtest "translated DML has exactly the effect of U" ~count:100
    (QCheck.make
       ~print:(fun d -> Format.asprintf "%a" Delta.pp d)
       gen_delta)
    (fun delta ->
      match Tr.translate env (uv ()) ~old_client:P.sample_client ~delta with
      | Error _ -> true (* delta not applicable to the sample; fine *)
      | Ok (script, new_client, new_store) -> (
          let old_store = ok_exn (Query.View.apply_update_views env (uv ()) P.sample_client) in
          let applied = ok_exn (Tr.apply_script old_store script) in
          Relational.Instance.equal applied new_store
          &&
          (* Reading back gives exactly the updated client state. *)
          match Query.View.apply_query_views env (qv ()) applied with
          | Ok back -> Edm.Instance.equal back new_client
          | Error e -> QCheck.Test.fail_reportf "pullback failed: %s" e))

let test_store_integrity_after_dml () =
  let delta =
    [
      Delta.Delete_link
        { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] };
      Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 5) ] };
    ]
  in
  let script, _, new_store = ok_exn (Tr.translate env (uv ()) ~old_client:P.sample_client ~delta) in
  checkb "deletes emitted" true
    (List.exists (function Tr.Delete_row _ -> true | _ -> false) script);
  check_ok "store constraints preserved" (Relational.Instance.conforms env.Query.Env.store new_store)

(* The foreign-key order as [Dml.Translate] computed it before its level
   walk: each round appends, sorted by name, every pending table whose
   referenced tables are all placed, rescanning the pending list. *)
let quadratic_topo_tables schema =
  let tables = List.map (fun (t : Relational.Table.t) -> t.Relational.Table.name) (Relational.Schema.tables schema) in
  let refs name =
    match Relational.Schema.find_table schema name with
    | None -> []
    | Some tbl ->
        List.filter_map
          (fun (fk : Relational.Table.foreign_key) ->
            if fk.Relational.Table.ref_table = name then None else Some fk.Relational.Table.ref_table)
          tbl.Relational.Table.fks
  in
  let placed = ref [] in
  let rec place pending =
    let ready, blocked =
      List.partition (fun t -> List.for_all (fun r -> List.mem r !placed) (refs t)) pending
    in
    match ready, blocked with
    | [], [] -> ()
    | [], blocked -> placed := !placed @ List.sort String.compare blocked
    | ready, blocked ->
        placed := !placed @ List.sort String.compare ready;
        place blocked
  in
  place tables;
  !placed

(* A client state with one entity of every type and one link of every
   association, so every mapped table holds a row. *)
let one_of_each (schema : Edm.Schema.t) =
  let rng = Random.State.make [| 1 |] in
  let next = ref 0 in
  let entity etype =
    incr next;
    let key = Edm.Schema.key_of schema etype in
    Edm.Instance.entity ~etype
      (List.map
         (fun (a, dom) ->
           (a, if List.mem a key then V.Int !next else Roundtrip.Generate.value_for rng dom))
         (Edm.Schema.attributes schema etype))
  in
  let inst, by_type =
    List.fold_left
      (fun acc (set, root) ->
        List.fold_left
          (fun (inst, by_type) etype ->
            let e = entity etype in
            (Edm.Instance.add_entity ~set e inst, (etype, e) :: by_type))
          acc (Edm.Schema.subtypes schema root))
      (Edm.Instance.empty, []) (Edm.Schema.entity_sets schema)
  in
  List.fold_left
    (fun inst (a : Edm.Association.t) ->
      let ends cols etype =
        let key = Edm.Schema.key_of schema etype in
        let attrs = (List.assoc etype by_type).Edm.Instance.attrs in
        List.map2 (fun c k -> (c, Datum.Row.get k attrs)) (cols a ~key) key
      in
      Edm.Instance.add_link ~assoc:a.Edm.Association.name
        (row (ends Edm.Association.end1_columns a.end1 @ ends Edm.Association.end2_columns a.end2))
        inst)
    inst (Edm.Schema.associations schema)

(* The tables of a script's inserts, in script order, each once. *)
let insert_tables script =
  List.fold_left
    (fun acc op ->
      match op, acc with
      | Tr.Insert_row { table; _ }, last :: _ when last = table -> acc
      | Tr.Insert_row { table; _ }, _ -> table :: acc
      | _ -> acc)
    [] script
  |> List.rev

(* Inserting a state that fills every table from an empty one inserts into
   the tables in the translation's FK order, which must be the order the
   quadratic walk computes. *)
let test_topo_order () =
  List.iter
    (fun (name, ((env : Query.Env.t), frags)) ->
      let uv = (ok_exn (Fullc.Compile.compile ~validate:false env frags)).Fullc.Compile.update_views in
      let inst = one_of_each env.Query.Env.client in
      let delta =
        List.concat_map
          (fun (set, _) ->
            List.map (fun entity -> Delta.Insert_entity { set; entity }) (Edm.Instance.entities inst ~set))
          (Edm.Schema.entity_sets env.Query.Env.client)
        @ List.concat_map
            (fun ({ name = assoc; _ } : Edm.Association.t) ->
              List.map (fun link -> Delta.Insert_link { assoc; link }) (Edm.Instance.links inst ~assoc))
            (Edm.Schema.associations env.Query.Env.client)
      in
      let script, _, _ = ok_exn (Tr.translate env uv ~old_client:Edm.Instance.empty ~delta) in
      check Alcotest.(list string) (name ^ ": FK order") (quadratic_topo_tables env.Query.Env.store)
        (insert_tables script))
    [ ("paper", (env, P.stage4.P.fragments)); ("chain", Workload.Chain.generate ~size:50);
      ("customer", Workload.Customer.generate ()) ]

let () =
  Alcotest.run "dml"
    [
      ( "delta",
        [
          Alcotest.test_case "insert/update/delete" `Quick test_delta_insert_update_delete;
          Alcotest.test_case "guards" `Quick test_delta_guards;
          Alcotest.test_case "one population swapped" `Quick test_delta_keeps_other_populations;
        ] );
      ( "translate",
        [
          Alcotest.test_case "entity ops" `Quick test_translate_simple;
          Alcotest.test_case "association ops" `Quick test_translate_link_ops;
          Alcotest.test_case "SQL rendering" `Quick test_sql_rendering;
          Alcotest.test_case "diff_stores FK topology" `Quick test_diff_stores_fk_topology;
          Alcotest.test_case "FK order of the level walk" `Quick test_topo_order;
          Alcotest.test_case "integrity preserved" `Quick test_store_integrity_after_dml;
          prop_exact_effect;
        ] );
    ]
