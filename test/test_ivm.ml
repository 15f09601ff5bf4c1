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

let uv () = (Lazy.force compiled).Fullc.Compile.update_views

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

let test_handle_guards () =
  let uv = uv () in
  let inc = ok_exn (Tr.ivm_init env uv P.sample_client) in
  let expect_error msg delta =
    match Tr.ivm_step inc delta with
    | Ok _ -> Alcotest.failf "%s: expected an error" msg
    | Error _ -> ()
  in
  expect_error "duplicate key"
    [ Delta.Insert_entity
        { set = "Persons";
          entity = Edm.Instance.entity ~etype:"Person" [ ("Id", V.Int 1); ("Name", V.String "x") ] } ];
  expect_error "missing delete"
    [ Delta.Delete_entity { set = "Persons"; key = row [ ("Id", V.Int 77) ] } ];
  expect_error "immutable key"
    [ Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 1) ]; changes = [ ("Id", V.Int 2) ] } ];
  expect_error "unknown attribute"
    [ Delta.Update_entity
        { set = "Persons"; key = row [ ("Id", V.Int 1) ];
          changes = [ ("Department", V.String "x") ] } ];
  expect_error "duplicate link"
    [ Delta.Insert_link
        { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 5); ("Employee.Id", V.Int 4) ] } ];
  expect_error "missing link"
    [ Delta.Delete_link
        { assoc = "Supports"; link = row [ ("Customer.Id", V.Int 6); ("Employee.Id", V.Int 3) ] } ]

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

let run_differential_case seed =
  let env, fragments = Workload.Random_model.generate ~profile ~seed () in
  let schema = env.Query.Env.client in
  match Fullc.Compile.compile ~validate:false env fragments with
  | Error e -> QCheck.Test.fail_reportf "seed %d: compile failed: %s" seed e
  | Ok c ->
      let uv = c.Fullc.Compile.update_views in
      let inst0 = Roundtrip.Generate.instance ~seed ~entities_per_set:4 schema in
      let rs = Random.State.make [| seed; 0xD17A |] in
      let inc =
        match Tr.ivm_init env uv inst0 with
        | Ok inc -> inc
        | Error e -> QCheck.Test.fail_reportf "seed %d: ivm_init failed: %s" seed e
      in
      let rec go batch inst inc =
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
              else go (batch + 1) new_client inc'
      in
      go 0 inst0 inc

let prop_differential =
  qtest "ivm ≡ full-diff on random models and delta streams" ~count:220
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    run_differential_case

let () =
  Alcotest.run "ivm"
    [
      ( "paper example",
        [
          Alcotest.test_case "one-shot translate modes agree" `Quick test_paper_one_shot;
          Alcotest.test_case "handle stream matches oracle" `Quick test_paper_handle_stream;
          Alcotest.test_case "handle guards" `Quick test_handle_guards;
        ] );
      ("differential", [ prop_differential ]);
    ]
