(* The edit-and-diff workflow of Section 1.2: "a developer can simply edit
   the model and then invoke a tool that generates a sequence of SMOs from a
   diff of the old and new models."

   We start from the paper's stage-2 model (Person + Employee, TPT), edit
   the client schema directly — a Manager subtype, a Phone attribute, an
   Assists association — and let the MoDEF-style differ infer the SMOs,
   picking mapping strategies from the styles it detects in the
   neighborhood.

   Run with: dune exec examples/evolution_session.exe *)

module P = Workload.Paper_example
module D = Datum.Domain

let ok = function Ok x -> x | Error e -> failwith e
let ok_v = function Ok x -> x | Error e -> failwith (Containment.Validation_error.show e)

let () =
  let st = ok (Fullc.Compile.compile P.stage2.P.env P.stage2.P.fragments) in
  Format.printf "current model:@.%a@.@." Edm.Schema.pp st.Core.State.env.Query.Env.client;

  (* The developer edits the model... *)
  let target = st.Core.State.env.Query.Env.client in
  let target =
    ok
      (Edm.Schema.add_derived
         (Edm.Entity_type.derived ~name:"Manager" ~parent:"Employee" [ ("Grade", D.Int) ])
         target)
  in
  let target = ok (Edm.Schema.add_attribute ~etype:"Person" ("Phone", D.String) target) in
  let target =
    ok
      (Edm.Schema.add_association
         { Edm.Association.name = "Assists"; end1 = "Employee"; end2 = "Manager";
           mult1 = Edm.Association.Many; mult2 = Edm.Association.Many }
         target)
  in
  Format.printf "edited model:@.%a@.@." Edm.Schema.pp target;

  (* ...and the differ turns the edit into SMOs. *)
  let smos = ok (Modef.Diff.infer st ~target) in
  Format.printf "inferred SMOs (mapping styles detected from the neighborhood):@.";
  List.iter (fun smo -> Format.printf "  %a@." Core.Smo.pp smo) smos;

  let detected = Modef.Style.detect st.Core.State.env st.Core.State.fragments ~etype:"Employee" in
  Format.printf "@.(Employee is mapped %a, so Manager inherits the TPT strategy)@.@."
    Modef.Style.pp detected;

  (* Incremental compilation of the whole batch. *)
  let st' = ok_v (Core.Engine.apply_all st smos) in
  Format.printf "evolved store schema:@.%a@.@." Relational.Schema.pp
    st'.Core.State.env.Query.Env.store;

  match
    Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
      st'.Core.State.update_views ~samples:50 ()
  with
  | Ok n -> Printf.printf "roundtrip check over %d random states of the evolved model: ok\n" n
  | Error f ->
      Format.eprintf "roundtrip failure!@.%a@." Roundtrip.Check.pp_failure f;
      exit 1
