open Common

(* AddEntity and AddEntityPart patch the new type's neighborhood (Sections
   3.1 and 3.3).  These tests hold the patched views against views compiled
   from scratch, and check that everything outside the neighborhood is left
   physically alone. *)

let new_type = function
  | Core.Smo.Add_entity { entity; p_ref; _ } | Core.Smo.Add_entity_part { entity; p_ref; _ } ->
      (entity.Edm.Entity_type.name, p_ref)
  | Core.Smo.Add_entity_tph { entity; _ } -> (entity.Edm.Entity_type.name, None)
  | smo -> Alcotest.failf "%s adds no entity type" (Core.Smo.name smo)

let compiled_state (env, frags) =
  Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile ~validate:false env frags))

let customer = lazy (compiled_state (Workload.Customer.generate ()))
let chain = lazy (compiled_state (Workload.Chain.generate ~size:10))

let views_of (st : Core.State.t) =
  let qv = st.Core.State.query_views in
  List.map
    (fun (_, v) -> v.Query.View.query)
    (Query.View.entity_view_bindings qv @ Query.View.assoc_view_bindings qv
    @ Query.View.update_view_bindings st.Core.State.update_views)

(* -- differential: surgery vs. regeneration --------------------------------- *)

let rows env db q = List.sort_uniq Datum.Row.compare (Query.Eval.rows_set env db q)

let roundtrips (s : Core.State.t) =
  Roundtrip.Check.roundtrips s.Core.State.env s.Core.State.query_views s.Core.State.update_views
    ~samples:2 ~entities_per_set:6 ()

(* Apply [smo] by surgery and compare the result with the same mapping's
   views regenerated by [Algo.recompile_set] (the set's views rebuilt by the
   full compiler) and compiled from scratch by [Fullc.Compile]: all three
   roundtrip, their update views store the
   same rows, and the types whose views the SMO may change (E, the types
   between E and the root, the root, and E's siblings) read back the same
   rows through each.  Structure may differ. *)
let differential ~tag (st : Core.State.t) smo =
  let st' = ok_v (Core.Engine.apply st smo) in
  check_wf tag st';
  let env' = st'.Core.State.env and frags' = st'.Core.State.fragments in
  let client' = env'.Query.Env.client in
  let e, _ = new_type smo in
  let set = Option.get (Edm.Schema.set_of_type client' e) in
  let oracle = ok_v (Core.Algo.recompile_set env' frags' ~set st') in
  let full = compiled_state (env', frags') in
  let states = [ ("surgery", st'); ("recompile_set", oracle); ("Fullc", full) ] in
  List.iter
    (fun (name, s) ->
      match roundtrips s with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "%s: %s views: %a" tag name Roundtrip.Check.pp_failure f)
    states;
  let siblings =
    match Edm.Schema.parent client' e with Some p -> Edm.Schema.children client' p | None -> []
  in
  let types = List.sort_uniq String.compare ((e :: Edm.Schema.ancestors client' e) @ siblings) in
  List.iter
    (fun seed ->
      let inst = Roundtrip.Generate.instance ~seed ~entities_per_set:6 client' in
      let stores =
        List.map
          (fun (name, (s : Core.State.t)) ->
            (name, ok_exn (Query.View.apply_update_views env' s.Core.State.update_views inst)))
          states
      in
      let store = List.assoc "surgery" stores in
      List.iter
        (fun (name, other) ->
          checkb (Printf.sprintf "%s seed %d: %s stores the same rows" tag seed name) true
            (Relational.Instance.equal store other))
        stores;
      let db = Query.Eval.store_db store in
      List.iter
        (fun ty ->
          let atts = Edm.Schema.attribute_names client' ty in
          let read (s : Core.State.t) =
            match Query.View.entity_view s.Core.State.query_views ty with
            | Some v -> rows env' db (Query.Algebra.project_cols atts v.Query.View.query)
            | None -> Alcotest.failf "%s: no view for %s" tag ty
          in
          let expected = read st' in
          List.iter
            (fun (name, s) ->
              check rows_testable
                (Printf.sprintf "%s seed %d: %s reads %s alike" tag seed name ty)
                expected (read s))
            states)
        types)
    [ 1; 2 ]

let aeps suite = List.filter (fun (label, _) -> String.starts_with ~prefix:"AEP" label) suite

(* Each AEP of a benchmark suite, alone and after the suite's AE-TPT. *)
let suite_differential name st suite =
  let after_tpt = ok_v (Core.Engine.apply st (List.assoc "AE-TPT" suite)) in
  List.iter
    (fun (label, smo) ->
      differential ~tag:(Printf.sprintf "%s %s" name label) st smo;
      differential ~tag:(Printf.sprintf "%s AE-TPT; %s" name label) after_tpt smo)
    (aeps suite)

let test_chain () =
  suite_differential "chain-10" (Lazy.force chain) (Workload.Chain.smo_suite ~at:5)

let test_customer () =
  suite_differential "customer" (Lazy.force customer) (Workload.Customer.smo_suite ())

(* The AEP step of [Common.random_pipeline] after the steps before it.  The
   seeds must between them reach every shape the step has. *)
let test_random_models () =
  let shapes = ref [] in
  List.iter
    (fun seed ->
      let st = compiled_state (Workload.Random_model.generate ~seed ()) in
      match random_pipeline seed st with
      | None -> ()
      | Some smos -> (
          let prefix = List.filteri (fun i _ -> i < List.length smos - 1) smos in
          let aep = List.nth smos (List.length smos - 1) in
          match
            List.fold_left
              (fun acc smo -> Result.bind acc (fun st -> Core.Engine.apply st smo))
              (Ok st) prefix
          with
          | Error _ -> () (* the pipeline's own steps may rightly refuse *)
          | Ok before -> (
              let tag = Printf.sprintf "seed %d" seed in
              match Core.Engine.apply before aep with
              | Error e ->
                  (* Only P = NIL may be refused (below an association
                     endpoint, as AddEntity TPC is). *)
                  let _, p_ref = new_type aep in
                  if p_ref <> None then Alcotest.failf "%s: AEP rejected: %s" tag (show_v e)
              | Ok _ ->
                  differential ~tag before aep;
                  let _, p_ref = new_type aep in
                  let p =
                    match p_ref with
                    | None -> "nil"
                    | Some "Fresh" -> "parent"
                    | Some _ -> "grandparent"
                  in
                  shapes := (seed mod 4, p) :: !shapes)))
    (List.init 36 (fun i -> i + 1));
  List.iter
    (fun shape ->
      checkb (Printf.sprintf "partition shape %d reached" shape) true
        (List.exists (fun (s, _) -> s = shape) !shapes))
    [ 0; 1; 2; 3 ];
  List.iter
    (fun p ->
      checkb (Printf.sprintf "P = %s reached" p) true (List.exists (fun (_, p') -> p' = p) !shapes))
    [ "nil"; "parent"; "grandparent" ]

(* AE-TPT re-storing inherited attributes, on the paper's stage 2 (Person in
   HR, Employee TPT in Emp): a Manager whose α re-stores Department, once
   under its parent Employee, which already yields it, and once under its
   grandparent Person, where coverage requires it. *)
let test_restored_attributes () =
  let stage = Workload.Paper_example.stage2 in
  let st = compiled_state (stage.env, stage.fragments) in
  let manager = Edm.Entity_type.derived ~name:"Manager" ~parent:"Employee" [ ("Level", D.Int) ] in
  let ae ~p_ref ~ref_table =
    Core.Smo.Add_entity
      { entity = manager; alpha = [ "Id"; "Department"; "Level" ]; p_ref = Some p_ref;
        table =
          Relational.Table.make ~name:"TManager" ~key:[ "Id" ]
            ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table; ref_columns = [ "Id" ] } ]
            [ ("Id", D.Int, `Not_null); ("Dept", D.String, `Null); ("Level", D.Int, `Null) ];
        fmap = [ ("Id", "Id"); ("Department", "Dept"); ("Level", "Level") ] }
  in
  differential ~tag:"under the parent" st (ae ~p_ref:"Employee" ~ref_table:"Emp");
  differential ~tag:"under the grandparent" st (ae ~p_ref:"Person" ~ref_table:"HR")

(* -- sharing --------------------------------------------------------------- *)

(* A node-by-node copy: what Algorithm 2's condition rewrite returned for
   every update view before it preserved sharing. *)
let rec copy = function
  | Query.Algebra.Scan s -> Query.Algebra.Scan s
  | Select (c, q) -> Select (c, copy q)
  | Project (items, q) -> Project (items, copy q)
  | Join (l, r, on) -> Join (copy l, copy r, on)
  | Left_outer_join (l, r, on) -> Left_outer_join (copy l, copy r, on)
  | Full_outer_join (l, r, on) -> Full_outer_join (copy l, copy r, on)
  | Union_all (l, r) -> Union_all (copy l, copy r)

(* AE-TPT, AE-TPC, AE-TPH and each AEP on customer: every view outside the
   new type's neighborhood (E, P and its ancestors, the types between E and
   P — all of E's ancestors for AE-TPH — and the tables whose update views
   the rewrite changes) is the pre-SMO view itself; neighborhood views whose
   constructors were shared still share them; and the distinct nodes of the
   pre- and post-SMO views together (what a session that can undo holds)
   are no more than with the regeneration the SMO did before:
   [recompile_set] for AEP, and a rebuilt copy of every update view for AE
   and AE-TPH. *)
let test_sharing () =
  let st = Lazy.force customer in
  let suite = Workload.Customer.smo_suite () in
  List.iter
    (fun label ->
      let smo = List.assoc label suite in
      let st' = ok_v (Core.Engine.apply st smo) in
      let client' = st'.Core.State.env.Query.Env.client in
      let e, p_ref = new_type smo in
      let between = Edm.Schema.strictly_between client' ~low:e ~high:p_ref in
      let anc = match p_ref with None -> [] | Some p -> p :: Edm.Schema.ancestors client' p in
      let neighborhood = (e :: anc) @ between in
      let qv = st.Core.State.query_views and qv' = st'.Core.State.query_views in
      List.iter
        (fun (ty, v) ->
          if not (List.mem ty neighborhood) then
            checkb (Printf.sprintf "%s: view of %s untouched" label ty) true
              (match Query.View.entity_view qv' ty with Some v' -> v' == v | None -> false))
        (Query.View.entity_view_bindings qv);
      let ctor qv ty = (Option.get (Query.View.entity_view qv ty)).Query.View.ctor in
      let patched = List.filter (fun ty -> ty <> e) neighborhood in
      List.iter
        (fun f ->
          List.iter
            (fun g ->
              if String.compare f g < 0 && ctor qv f == ctor qv g then
                checkb (Printf.sprintf "%s: %s and %s still share a constructor" label f g) true
                  (ctor qv' f == ctor qv' g))
            patched)
        patched;
      List.iter
        (fun (a, v) ->
          checkb (Printf.sprintf "%s: view of %s untouched" label a) true
            (match Query.View.assoc_view qv' a with Some v' -> v' == v | None -> false))
        (Query.View.assoc_view_bindings qv);
      List.iter
        (fun (t, v) ->
          match Query.View.table_view st'.Core.State.update_views t with
          | Some v' when Query.View.equal v v' ->
              checkb (Printf.sprintf "%s: update view of %s untouched" label t) true (v' == v)
          | Some _ -> ()
          | None -> Alcotest.failf "%s: update view of %s lost" label t)
        (Query.View.update_view_bindings st.Core.State.update_views);
      let reference =
        match smo with
        | Core.Smo.Add_entity_part _ ->
            let set = Option.get (Edm.Schema.set_of_type client' e) in
            ok_v (Core.Algo.recompile_set st'.Core.State.env st'.Core.State.fragments ~set st')
        | _ ->
            { st' with
              Core.State.update_views =
                List.fold_left
                  (fun acc (t, (v : Query.View.t)) ->
                    Query.View.set_table_view t { v with Query.View.query = copy v.Query.View.query } acc)
                  st'.Core.State.update_views
                  (Query.View.update_view_bindings st'.Core.State.update_views) }
      in
      let distinct s = snd (Query.Algebra.sharing (views_of st @ views_of s)) in
      let ours = distinct st' and theirs = distinct reference in
      if ours > theirs then
        Alcotest.failf "%s: %d distinct nodes across both states, %d before" label ours theirs)
    [ "AE-TPT"; "AE-TPC"; "AE-TPH"; "AEP-1p"; "AEP-2p"; "AEP-3p" ]

let () =
  Alcotest.run "surgery"
    [
      ( "differential",
        [
          Alcotest.test_case "chain-10" `Quick test_chain;
          Alcotest.test_case "customer" `Quick test_customer;
          Alcotest.test_case "random models" `Quick test_random_models;
          Alcotest.test_case "AE re-storing inherited attributes" `Quick
            test_restored_attributes;
        ] );
      ("sharing", [ Alcotest.test_case "customer neighborhoods" `Quick test_sharing ]);
    ]
