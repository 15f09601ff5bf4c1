(* An application-development session end to end:

   1. the model and mapping are loaded from a surface-syntax file
      (examples/models/paper_stage1.imc) and fully compiled once;
   2. the schema evolves inside a Core.Session — incremental compilation,
      with a checkpoint, a validation failure that leaves the session
      untouched, an undo, and a rollback to the checkpoint;
   3. the application updates objects through a DML script, which the update
      views translate into minimal store-side SQL — the update-translation
      problem of Section 1.1.

   Run from the repository root: dune exec examples/update_session.exe
   It exits 1 if the rollback misses the checkpointed state or the store
   read back differs from the updated objects. *)

let ok = function Ok x -> x | Error e -> failwith e
let ok_v = function Ok x -> x | Error e -> failwith (Containment.Validation_error.show e)
let read path = In_channel.with_open_text path In_channel.input_all

let () =
  (* -- 1. load and compile the model file -------------------------------- *)
  let env, frags = ok (Surface.Parser.model (read "examples/models/paper_stage1.imc")) in
  let session = Core.Session.start (ok (Fullc.Compile.compile env frags)) in
  print_endline "loaded examples/models/paper_stage1.imc and compiled it";

  (* -- 2. evolve inside a session ----------------------------------------- *)
  let smos = ok (Surface.Parser.script (read "examples/models/paper_changes.smo")) in
  let session =
    List.fold_left (fun s smo -> ok_v (Core.Session.apply s smo)) session smos
  in
  let session = Core.Session.checkpoint ~name:"stage4" session in
  let stage4 = Core.Session.current session in
  (* A change that cannot validate: TPC below an association endpoint
     (the Fig. 6 scenario).  The session absorbs the abort. *)
  let vip_tpc =
    Core.Smo.Add_entity
      { entity =
          Edm.Entity_type.derived ~name:"Vip" ~parent:"Customer"
            [ ("Tier", Datum.Domain.String) ];
        alpha = [ "Id"; "Name"; "CredScore"; "BillAddr"; "Tier" ];
        p_ref = None;
        table =
          Relational.Table.make ~name:"VipT" ~key:[ "Id" ]
            [ ("Id", Datum.Domain.Int, `Not_null); ("Name", Datum.Domain.String, `Null);
              ("CredScore", Datum.Domain.Int, `Null); ("BillAddr", Datum.Domain.String, `Null);
              ("Tier", Datum.Domain.String, `Null) ];
        fmap =
          List.map (fun a -> (a, a)) [ "Id"; "Name"; "CredScore"; "BillAddr"; "Tier" ] }
  in
  let session =
    match Core.Session.apply session vip_tpc with
    | Ok _ -> failwith "the Fig. 6 scenario should have aborted"
    | Error e ->
        Printf.printf "rejected VIP-as-TPC, as Fig. 6 predicts:\n  %s\n"
          (Containment.Validation_error.show e);
        session
  in
  (* The TPT variant works; then we change our mind and undo it. *)
  let vip_tpt =
    Core.Smo.Add_entity
      { entity =
          Edm.Entity_type.derived ~name:"Vip" ~parent:"Customer"
            [ ("Tier", Datum.Domain.String) ];
        alpha = [ "Id"; "Tier" ]; p_ref = Some "Customer";
        table =
          Relational.Table.make ~name:"VipT" ~key:[ "Id" ]
            [ ("Id", Datum.Domain.Int, `Not_null); ("Tier", Datum.Domain.String, `Null) ];
        fmap = [ ("Id", "Id"); ("Tier", "Tier") ] }
  in
  let session = ok_v (Core.Session.apply session vip_tpt) in
  let session = Option.get (Core.Session.undo session) in
  (* The checkpoint names the stage-4 state itself, so rolling back to it
     lands on that very value. *)
  let session = ok (Core.Session.rollback_to ~name:"stage4" session) in
  if Core.Session.current session != stage4 then (
    print_endline "rollback to stage4 did not return the checkpointed state";
    exit 1);
  Printf.printf "\nsession log:\n%s\n" (Core.Session.log session);
  let st = Core.Session.current session in

  (* -- 3. run application updates through the mapping ---------------------- *)
  let env = st.Core.State.env in
  let inst = ok (Surface.Parser.data env (read "examples/models/paper_data.imcd")) in
  let delta = ok (Surface.Parser.dml env (read "examples/models/paper_updates.dml")) in
  let sql, new_client, new_store =
    ok (Dml.Translate.translate env st.Core.State.update_views ~old_client:inst ~delta)
  in
  print_endline "client update script translated to store DML:";
  print_string (Dml.Translate.to_sql sql);
  (* The criterion of Section 1.1: the store now reflects exactly the update. *)
  let back = ok (Query.View.apply_query_views env st.Core.State.query_views new_store) in
  let exact = Edm.Instance.equal back new_client in
  Printf.printf "\nreading the store back yields exactly the updated objects: %b\n" exact;
  if not exact then exit 1
