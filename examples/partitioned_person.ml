(* The partitioned mappings of Section 3.3:

   - Person entities split by age across Adult/Young tables, with the
     tautology check (age >= 18) ∨ (age < 18) validating coverage — and a
     deliberately gapped variant showing the validation abort;
   - the gender example: ids routed to Men/Women by a closed-domain
     attribute that is never stored explicitly — the compiler re-materializes
     it from the A = c consequences of the partition conditions.

   Run with: dune exec examples/partitioned_person.exe *)

module D = Datum.Domain
module V = Datum.Value
module T = Relational.Table
module C = Query.Cond

let ok = function Ok x -> x | Error e -> failwith e
let ok_v = function Ok x -> x | Error e -> failwith (Containment.Validation_error.show e)

let base () =
  let client =
    ok
      (Edm.Schema.add_root ~set:"People"
         (Edm.Entity_type.root ~name:"Human" ~key:[ "Hid" ] [ ("Hid", D.Int) ])
         Edm.Schema.empty)
  in
  let store =
    ok
      (Relational.Schema.add_table
         (T.make ~name:"Humans" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ])
         Relational.Schema.empty)
  in
  let fragments =
    Mapping.Fragments.of_list
      [ Mapping.Fragment.entity ~set:"People" ~cond:(C.Is_of "Human") ~table:"Humans"
          [ ("Hid", "Hid") ] ]
  in
  ok (Core.State.bootstrap (Query.Env.make ~client ~store) fragments)

let part alpha cond table fmap =
  { Core.Add_entity_part.part_alpha = alpha; part_cond = cond; part_table = table;
    part_fmap = fmap }

let () =
  (* -- Adult / Young ---------------------------------------------------- *)
  let st = base () in
  let adult_young ~young_bound =
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:"Person" ~parent:"Human" ~non_null:[ "Age" ]
            [ ("Age", D.Int) ];
        p_ref = Some "Human";
        parts =
          [
            part [ "Hid"; "Age" ]
              (C.Cmp ("Age", C.Ge, V.Int 18))
              (T.make ~name:"Adult" ~key:[ "Hid" ]
                 [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ])
              [ ("Hid", "Hid"); ("Age", "Age") ];
            part [ "Hid"; "Age" ]
              (C.Cmp ("Age", C.Lt, V.Int young_bound))
              (T.make ~name:"Young" ~key:[ "Hid" ]
                 [ ("Hid", D.Int, `Not_null); ("Age", D.Int, `Null) ])
              [ ("Hid", "Hid"); ("Age", "Age") ];
          ] }
  in
  (* A gapped partitioning must abort: ages in [10, 18) would be lost. *)
  (match Core.Engine.apply st (adult_young ~young_bound:10) with
  | Ok _ ->
      prerr_endline "BUG: the gapped mapping was accepted";
      exit 1
  | Error e ->
      Printf.printf "gapped partitioning rejected, as it must be:\n  %s\n\n%!"
        (Containment.Validation_error.show e));
  let st = ok_v (Core.Engine.apply st (adult_young ~young_bound:18)) in
  print_endline "Person partitioned into Adult (age >= 18) / Young (age < 18):";
  Format.printf "%a@.@." Mapping.Fragments.pp st.Core.State.fragments;
  let people =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Person" [ ("Hid", V.Int 1); ("Age", V.Int 34) ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Person" [ ("Hid", V.Int 2); ("Age", V.Int 12) ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Human" [ ("Hid", V.Int 3) ])
  in
  let env = st.Core.State.env in
  let stored = ok (Query.View.apply_update_views env st.Core.State.update_views people) in
  Format.printf "stored:@.%a@.@." Relational.Instance.pp stored;
  let back = ok (Query.View.apply_query_views env st.Core.State.query_views stored) in
  Printf.printf "roundtrips: %b\n\n%!" (Edm.Instance.equal back people);

  (* -- the gender example ------------------------------------------------ *)
  let st = base () in
  let gender = D.Enum [ "M"; "F" ] in
  let smo =
    Core.Smo.Add_entity_part
      { entity =
          Edm.Entity_type.derived ~name:"Citizen" ~parent:"Human"
            ~non_null:[ "CName"; "Gender" ]
            [ ("CName", D.String); ("Gender", gender) ];
        p_ref = Some "Human";
        parts =
          [
            part [ "Hid" ]
              (C.Cmp ("Gender", C.Eq, V.String "M"))
              (T.make ~name:"Men" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ])
              [ ("Hid", "Hid") ];
            part [ "Hid" ]
              (C.Cmp ("Gender", C.Eq, V.String "F"))
              (T.make ~name:"Women" ~key:[ "Hid" ] [ ("Hid", D.Int, `Not_null) ])
              [ ("Hid", "Hid") ];
            part [ "Hid"; "CName" ] C.True
              (T.make ~name:"Names" ~key:[ "Hid" ]
                 [ ("Hid", D.Int, `Not_null); ("CName", D.String, `Null) ])
              [ ("Hid", "Hid"); ("CName", "CName") ];
          ] }
  in
  let st = ok_v (Core.Engine.apply st smo) in
  print_endline "gender example: Gender is covered because (M ∨ F) is a tautology over the";
  print_endline "closed M/F domain, even though no table stores it. Query view of Humans:";
  Format.printf "%a@.@." Query.Pretty.view
    (Option.get (Query.View.entity_view st.Core.State.query_views "Human"));
  let citizens =
    Edm.Instance.empty
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Citizen"
            [ ("Hid", V.Int 1); ("CName", V.String "ana"); ("Gender", V.String "F") ])
    |> Edm.Instance.add_entity ~set:"People"
         (Edm.Instance.entity ~etype:"Citizen"
            [ ("Hid", V.Int 2); ("CName", V.String "bob"); ("Gender", V.String "M") ])
  in
  let env = st.Core.State.env in
  let stored = ok (Query.View.apply_update_views env st.Core.State.update_views citizens) in
  Format.printf "stored:@.%a@.@." Relational.Instance.pp stored;
  let back = ok (Query.View.apply_query_views env st.Core.State.query_views stored) in
  Printf.printf "gender re-materialized on the way back: %b\n%!"
    (Edm.Instance.equal back citizens)
