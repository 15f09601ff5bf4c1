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
  ok_exn (Fullc.Compile.compile ~validate:false env frags)

let customer = lazy (compiled_state (Workload.Customer.generate ()))
let chain = lazy (compiled_state (Workload.Chain.generate ~size:10))

let views_of (st : Core.State.t) = Query.View.queries st.Core.State.query_views st.Core.State.update_views

(* -- differential: surgery vs. regeneration --------------------------------- *)

let rows env db q = List.sort_uniq Datum.Row.compare (Query.Eval.rows_set env db q)

let roundtrips (s : Core.State.t) =
  Roundtrip.Check.roundtrips s.Core.State.env s.Core.State.query_views s.Core.State.update_views
    ~samples:2 ~entities_per_set:6 ()

(* Apply [smo] by surgery and compare the result with the same mapping's
   views regenerated by [Recompile.recompile_set] (the set's views rebuilt by the
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
  let oracle = ok_v (Recompile.recompile_set env' frags' ~set st') in
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
   seeds must between them reach every shape the step has, and its gapped
   form ([~gap:true]) must be refused under every P. *)
let test_random_models () =
  let shapes = ref [] and refused = ref [] in
  let p_of aep =
    match snd (new_type aep) with
    | None -> "nil"
    | Some "Fresh" -> "parent"
    | Some _ -> "grandparent"
  in
  List.iter
    (fun seed ->
      let st = compiled_state (Workload.Random_model.generate ~seed ()) in
      let rec split = function
        | (Core.Smo.Add_entity_part _ as aep) :: _ -> ([], aep)
        | smo :: rest ->
            let prefix, aep = split rest in
            (smo :: prefix, aep)
        | [] -> Alcotest.fail "the pipeline has no AEP step"
      in
      match random_pipeline seed st, random_pipeline ~gap:true seed st with
      | None, _ | _, None -> ()
      | Some smos, Some gapped -> (
          let prefix, aep = split smos in
          match
            List.fold_left
              (fun acc smo -> Result.bind acc (fun st -> Core.Engine.apply st smo))
              (Ok st) prefix
          with
          | Error _ -> () (* the pipeline's own steps may rightly refuse *)
          | Ok before -> (
              let tag = Printf.sprintf "seed %d" seed in
              (match Core.Engine.apply before (snd (split gapped)) with
              | Ok _ -> Alcotest.failf "%s: AEP with a coverage gap accepted" tag
              | Error e ->
                  checkb (tag ^ ": the gap is refused as such") true
                    (contains ~sub:"are not a tautology" (show_v e));
                  refused := p_of aep :: !refused);
              match Core.Engine.apply before aep with
              | Error e ->
                  (* Only P = NIL may be refused (below an association
                     endpoint, as AddEntity TPC is). *)
                  if p_of aep <> "nil" then Alcotest.failf "%s: AEP rejected: %s" tag (show_v e)
              | Ok _ ->
                  differential ~tag before aep;
                  shapes := (seed mod 5, p_of aep) :: !shapes)))
    (List.init 36 (fun i -> i + 1));
  List.iter
    (fun shape ->
      checkb (Printf.sprintf "partition shape %d reached" shape) true
        (List.exists (fun (s, _) -> s = shape) !shapes))
    [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun p ->
      checkb (Printf.sprintf "P = %s reached" p) true (List.exists (fun (_, p') -> p' = p) !shapes);
      checkb (Printf.sprintf "gap refused under P = %s" p) true (List.mem p !refused))
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
  | Join (kind, l, r, on) -> Join (kind, copy l, copy r, on)
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
        (fun (t, q) ->
          match Query.View.table_view st'.Core.State.update_views t with
          | Some q' when Query.Algebra.equal q q' ->
              checkb (Printf.sprintf "%s: update view of %s untouched" label t) true (q' == q)
          | Some _ -> ()
          | None -> Alcotest.failf "%s: update view of %s lost" label t)
        (Query.View.update_view_bindings st.Core.State.update_views);
      let reference =
        match smo with
        | Core.Smo.Add_entity_part _ ->
            let set = Option.get (Edm.Schema.set_of_type client' e) in
            ok_v (Recompile.recompile_set st'.Core.State.env st'.Core.State.fragments ~set st')
        | _ ->
            { st' with
              Core.State.update_views =
                List.fold_left
                  (fun acc (t, q) -> Query.View.set_table_view t (copy q) acc)
                  st'.Core.State.update_views
                  (Query.View.update_view_bindings st'.Core.State.update_views) }
      in
      let distinct s = snd (Query.Algebra.sharing (views_of st @ views_of s)) in
      let ours = distinct st' and theirs = distinct reference in
      if ours > theirs then
        Alcotest.failf "%s: %d distinct nodes across both states, %d before" label ours theirs)
    [ "AE-TPT"; "AE-TPC"; "AE-TPH"; "AEP-1p"; "AEP-2p"; "AEP-3p" ]

(* -- the shrinking SMOs against the reference regeneration ---------------------- *)

(* Each drop of the customer drop suite from the state its suite SMOs
   leave on the compiled customer model, and the paper's drops
   (examples/models/paper_drops.smo) one after another from stage 4: every
   one is accepted, leaves its views as {!Recompile} expects, and leaves no
   non-nullable column unwritten. *)
let test_drops () =
  let st = Lazy.force customer in
  List.iter
    (fun (label, before, smo) ->
      let st = ok_v (Core.Engine.apply_all st before) in
      let st' = ok_v (Core.Engine.apply st smo) in
      Recompile.check ("customer " ^ label) st smo st';
      check_written ("customer " ^ label) st')
    (Workload.Customer.drop_suite ());
  let pe = Workload.Paper_example.stage4 in
  ignore
    (List.fold_left
       (fun st smo ->
         let tag = "paper " ^ Core.Smo.show smo in
         let st' = ok_v (Core.Engine.apply st smo) in
         Recompile.check tag st smo st';
         check_written tag st';
         st')
       (compiled_state (pe.Workload.Paper_example.env, pe.Workload.Paper_example.fragments))
       [
         Core.Smo.Drop_association { assoc = "Supports" };
         Core.Smo.Drop_property { etype = "Employee"; attr = "Department" };
         Core.Smo.Drop_entity { etype = "Customer" };
       ])

(* -- locality: the indexed adapters against the full walk ------------------- *)

(* The [fragments_visited] and [views_visited] tags of one traced
   application of [smo], summed. *)
let traced_visits st smo =
  Obs.Span.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable (fun () -> Core.Engine.apply st smo) in
  let sum tag =
    Obs.Span.fold_all
      (fun n sp -> match List.assoc_opt tag (Obs.Span.attrs sp) with Some v -> n + int_of_string v | None -> n)
      0
  in
  let visits = (sum "fragments_visited", sum "views_visited") in
  Obs.Span.reset ();
  (r, visits)

(* Each SMO of [smos] from [st], then [smos] chained: every accepted step
   is held against the full walk ({!Adapt_walk.check}), and each additive
   entity SMO visits exactly the fragments and update views the full walk
   finds under the types it rewrites.  Returns the visits per label. *)
let locality name st smos =
  Adapt_walk.type_invariant name st;
  Adapt_walk.indexes name st;
  let visits =
    List.filter_map
      (fun (label, smo) ->
        let tag = name ^ " " ^ label in
        match traced_visits st smo with
        | Error _, _ -> None
        | Ok st', got -> (
            Adapt_walk.check tag st smo st';
            match Adapt_walk.adaptation st'.Core.State.env.Query.Env.client smo with
            | None -> None
            | Some (_, types) ->
                check Alcotest.(pair int int) (tag ^ ": fragments and update views visited")
                  (Adapt_walk.visited st types) got;
                Some (label, got)))
      smos
  in
  ignore
    (List.fold_left
       (fun st (label, smo) ->
         match Core.Engine.apply st smo with
         | Ok st' ->
             Adapt_walk.check (name ^ " chained " ^ label) st smo st';
             st'
         | Error _ -> st)
       st smos);
  visits

let test_locality () =
  let visits =
    locality "customer" (Lazy.force customer)
      (Workload.Customer.smo_suite ()
      @ List.map (fun (label, _, smo) -> (label, smo)) (Workload.Customer.drop_suite ()))
  in
  (* One fragment and one update view each, two for AE-TPC: the customer
     neighborhoods, against 270 fragments and 168 update views. *)
  check
    Alcotest.(list (pair string (pair int int)))
    "customer visits"
    [ ("AE-TPT", (1, 1)); ("AE-TPC", (2, 2)); ("AE-TPH", (1, 1)); ("AEP-1p", (1, 1));
      ("AEP-2p", (1, 1)); ("AEP-3p", (1, 1)) ]
    visits;
  let chain_at size = compiled_state (Workload.Chain.generate ~size) in
  let at_10 = locality "chain-10" (Lazy.force chain) (Workload.Chain.smo_suite ~at:5) in
  let at_125 = locality "chain-125" (chain_at 125) (Workload.Chain.smo_suite ~at:62) in
  check Alcotest.(list (pair string (pair int int))) "chain visits do not grow" at_10 at_125

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
      ("shrinking", [ Alcotest.test_case "drops as the reference" `Quick test_drops ]);
      ("locality", [ Alcotest.test_case "indexed adapters as the full walk" `Quick test_locality ]);
    ]
