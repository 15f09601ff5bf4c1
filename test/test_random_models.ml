open Common

(* Whole-system fuzzing: every randomly generated valid model must pass
   through every pipeline of the stack. *)

let seeds = List.init 25 (fun i -> i + 1)

let models =
  lazy
    (List.map (fun seed -> (seed, Workload.Random_model.generate ~seed ())) seeds)

let test_well_formed () =
  List.iter
    (fun (seed, (env, frags)) ->
      let tag = Printf.sprintf "seed %d" seed in
      check_ok (tag ^ " client") (Edm.Schema.well_formed env.Query.Env.client);
      check_ok (tag ^ " store") (Relational.Schema.well_formed env.Query.Env.store);
      check_ok (tag ^ " fragments") (Mapping.Fragments.well_formed env frags))
    (Lazy.force models)

let compiled =
  lazy
    (List.map
       (fun (seed, (env, frags)) ->
         match Fullc.Compile.compile env frags with
         | Ok c -> (seed, env, frags, c)
         | Error e -> Alcotest.failf "seed %d failed to compile: %s" seed e)
       (Lazy.force models))

let test_compiles () =
  List.iter
    (fun (seed, env, frags, c) ->
      check_wf (Printf.sprintf "seed %d" seed) (Core.State.of_compiled env frags c))
    (Lazy.force compiled)

(* The SMO pipeline grown below the root of a random model's first entity
   set, or [None] when that root has no key-carrying table.  Its shape
   varies with the seed: grow, then widen with a property, then (sometimes)
   shrink again. *)
let pipeline seed (st : Core.State.t) =
  match Edm.Schema.entity_sets st.Core.State.env.Query.Env.client with
  | [] -> None
  | (_, root) :: _ -> (
      match Modef.Style.key_carrier st.Core.State.env st.Core.State.fragments ~etype:root with
      | None -> None
      | Some (ptable, _) ->
          let entity =
            Edm.Entity_type.derived ~name:"Fresh" ~parent:root [ ("FreshAttr", D.String) ]
          in
          let table =
            Relational.Table.make ~name:"TFresh" ~key:[ "Id" ]
              ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = ptable;
                       ref_columns = [ "Id" ] } ]
              [ ("Id", D.Int, `Not_null); ("FreshAttr", D.String, `Null) ]
          in
          Some
            ([ Core.Smo.Add_entity
                 { entity; alpha = [ "Id"; "FreshAttr" ]; p_ref = Some root; table;
                   fmap = [ ("Id", "Id"); ("FreshAttr", "FreshAttr") ] } ]
            @ (if seed mod 2 = 0 then
                 [ Core.Smo.Add_property
                     { etype = "Fresh"; attr = ("FreshExtra", D.Int);
                       target =
                         Core.Add_property.To_existing_table
                           { table = "TFresh"; column = "FreshExtra" } } ]
               else [])
            @
            if seed mod 3 = 0 then [ Core.Smo.Drop_property { etype = "Fresh"; attr = "FreshAttr" } ]
            else []))

(* [Engine.apply] one SMO at a time, asserting well-formed views after every
   accepted step; the first rejection aborts. *)
let apply_checked tag st smos =
  List.fold_left
    (fun acc smo ->
      Result.bind acc (fun st ->
          let r = Core.Engine.apply st smo in
          Result.iter (check_wf (tag ^ " after " ^ Core.Smo.name smo)) r;
          r))
    (Ok st) smos

let test_roundtrips () =
  List.iter
    (fun (seed, env, _frags, c) ->
      match
        Roundtrip.Check.roundtrips env c.Fullc.Compile.query_views c.Fullc.Compile.update_views
          ~samples:8 ~base_seed:(seed * 1000) ()
      with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "seed %d roundtrip: %a" seed Roundtrip.Check.pp_failure f)
    (Lazy.force compiled)

let test_mapping_semantics () =
  (* The store image of every sampled state is M-related to the state. *)
  List.iter
    (fun (seed, env, frags, c) ->
      let inst = Roundtrip.Generate.instance ~seed:(seed * 77) env.Query.Env.client in
      let store = ok_exn (Query.View.apply_update_views env c.Fullc.Compile.update_views inst) in
      checkb (Printf.sprintf "seed %d related" seed) true
        (Mapping.Fragments.related env inst store frags))
    (Lazy.force compiled)

let test_optimizer_equivalence () =
  List.iter
    (fun (seed, (env, frags)) ->
      match Fullc.Compile.compile ~validate:false ~optimize:true env frags with
      | Error e -> Alcotest.failf "seed %d optimized compile: %s" seed e
      | Ok opt -> (
          match
            Roundtrip.Check.roundtrips env opt.Fullc.Compile.query_views
              opt.Fullc.Compile.update_views ~samples:6 ~base_seed:(seed * 500) ()
          with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "seed %d optimized roundtrip: %a" seed Roundtrip.Check.pp_failure f))
    (Lazy.force models)

let test_state_io_roundtrip () =
  List.iter
    (fun (seed, env, frags, c) ->
      let st = Core.State.of_compiled env frags c in
      let st' = ok_exn (Surface.State_io.load (Surface.State_io.save st)) in
      checkb (Printf.sprintf "seed %d fragments survive" seed) true
        (Mapping.Fragments.equal st.Core.State.fragments st'.Core.State.fragments);
      checkb (Printf.sprintf "seed %d schema survives" seed) true
        (Edm.Schema.equal st.Core.State.env.Query.Env.client st'.Core.State.env.Query.Env.client))
    (Lazy.force compiled)

let test_dsl_roundtrip () =
  List.iter
    (fun (seed, (env, frags)) ->
      let text = Surface.Print_dsl.model env frags in
      match Result.bind (Surface.Parser.model text) Surface.Elaborate.model with
      | Error e -> Alcotest.failf "seed %d DSL reparse: %s" seed e
      | Ok (env', frags') ->
          checkb (Printf.sprintf "seed %d client" seed) true
            (Edm.Schema.equal env.Query.Env.client env'.Query.Env.client);
          checkb (Printf.sprintf "seed %d store" seed) true
            (Relational.Schema.equal env.Query.Env.store env'.Query.Env.store);
          checkb (Printf.sprintf "seed %d fragments" seed) true
            (Mapping.Fragments.equal frags frags'))
    (Lazy.force models)

let test_evolution_on_random_models () =
  (* An AddEntity TPT below a random root must keep the mapping sound. *)
  List.iter
    (fun (seed, env, frags, c) ->
      let st = Core.State.of_compiled env frags c in
      match pipeline seed st with
      | None -> ()
      | Some smos -> (
          let tag = Printf.sprintf "seed %d" seed in
          match apply_checked tag st [ List.hd smos ] with
          | Error _ -> () (* some random neighborhoods rightly refuse *)
          | Ok st' -> (
              match
                Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
                  st'.Core.State.update_views ~samples:5 ~base_seed:(seed * 331) ()
              with
              | Ok _ -> ()
              | Error f ->
                  Alcotest.failf "seed %d evolved roundtrip: %a" seed Roundtrip.Check.pp_failure f)))
    (Lazy.force compiled)

let test_differential_vs_fullc () =
  (* Differential check of the incremental compiler: after an SMO pipeline
     applied step by step, every surviving view must be equivalent to the
     view a from-scratch full compilation of the final mapping produces.
     [Containment.Check.equivalent] is the primary oracle; where its
     conservative outer-join approximation cannot prove equivalence, the
     views are compared by evaluation on sampled states instead. *)
  let empirical env dbs tag q_inc q_full =
    List.iter
      (fun db ->
        let rows q = List.sort_uniq Datum.Row.compare (Query.Eval.rows_set env db q) in
        if not (List.equal Datum.Row.equal (rows q_inc) (rows q_full)) then
          Alcotest.failf "%s: incremental and full views disagree" tag)
      dbs
  in
  let equiv env dbs tag q_inc q_full =
    (* Full-outer-join views are only approximated by the checker: proving
       equivalence cannot succeed, and the DNF expansion is exponential —
       go straight to the sampled-state comparison for those. *)
    let has_foj q = match Fullc.Optimize.stats q with n, _, _ -> n > 0 in
    if has_foj q_inc || has_foj q_full then empirical env dbs tag q_inc q_full
    else
      match Containment.Check.equivalent env q_inc q_full with
      | Ok true -> ()
      | Ok false | Error _ -> empirical env dbs tag q_inc q_full
  in
  List.iter
    (fun (seed, env, frags, c) ->
      let st = Core.State.of_compiled env frags c in
      match pipeline seed st with
      | None -> ()
      | Some smos -> (
          match apply_checked (Printf.sprintf "seed %d" seed) st smos with
          | Error _ -> () (* some random neighborhoods rightly refuse *)
          | Ok st' -> (
              let env' = st'.Core.State.env in
              match Fullc.Compile.compile env' st'.Core.State.fragments with
              | Error e -> Alcotest.failf "seed %d: full compile of evolved mapping: %s" seed e
              | Ok full ->
                  check_wf
                    (Printf.sprintf "seed %d full compile" seed)
                    (Core.State.of_compiled env' st'.Core.State.fragments full);
                  let insts =
                    List.init 4 (fun i ->
                        Roundtrip.Generate.instance ~seed:((seed * 913) + i)
                          env'.Query.Env.client)
                  in
                  let client_dbs = List.map Query.Eval.client_db insts in
                  let store_dbs =
                    List.map
                      (fun inst ->
                        Query.Eval.store_db
                          (ok_exn
                             (Query.View.apply_update_views env'
                                full.Fullc.Compile.update_views inst)))
                      insts
                  in
                  (* Query views read the store; compare them projected
                     onto the entity's attributes (the two compilers
                     differ in their internal tag columns). *)
                  List.iter
                    (fun (e, (v : Query.View.t)) ->
                      match Query.View.entity_view st'.Core.State.query_views e with
                      | None -> Alcotest.failf "seed %d: no incremental view for %s" seed e
                      | Some vi ->
                          let atts = Edm.Schema.attribute_names env'.Query.Env.client e in
                          equiv env' store_dbs
                            (Printf.sprintf "seed %d entity %s" seed e)
                            (Query.Algebra.project_cols atts vi.Query.View.query)
                            (Query.Algebra.project_cols atts v.Query.View.query))
                    (Query.View.entity_view_bindings full.Fullc.Compile.query_views);
                  List.iter
                    (fun (a, (v : Query.View.t)) ->
                      match Query.View.assoc_view st'.Core.State.query_views a with
                      | None -> Alcotest.failf "seed %d: no incremental assoc view for %s" seed a
                      | Some vi ->
                          equiv env' store_dbs
                            (Printf.sprintf "seed %d assoc %s" seed a)
                            vi.Query.View.query v.Query.View.query)
                    (Query.View.assoc_view_bindings full.Fullc.Compile.query_views);
                  (* Update views read the client state. *)
                  List.iter
                    (fun (t, (v : Query.View.t)) ->
                      match Query.View.table_view st'.Core.State.update_views t with
                      | None -> Alcotest.failf "seed %d: no incremental update view for %s" seed t
                      | Some vi ->
                          equiv env' client_dbs
                            (Printf.sprintf "seed %d table %s" seed t)
                            vi.Query.View.query v.Query.View.query)
                    (Query.View.update_view_bindings full.Fullc.Compile.update_views))))
    (Lazy.force compiled)

(* -- discharge parallelism is unobservable ---------------------------------- *)

(* [Engine.apply] with [~jobs:1] and with [~jobs:4] from one state: both
   accept with equal views, binding by binding, or both reject with the same
   rendered error.  Returns the accepted state. *)
let apply_both tag st smo =
  let views (st : Core.State.t) =
    let tagged kind = List.map (fun (n, v) -> (kind ^ " " ^ n, v)) in
    tagged "entity" (Query.View.entity_view_bindings st.Core.State.query_views)
    @ tagged "assoc" (Query.View.assoc_view_bindings st.Core.State.query_views)
    @ tagged "table" (Query.View.update_view_bindings st.Core.State.update_views)
  in
  let tag = tag ^ " " ^ Core.Smo.name smo in
  match (Core.Engine.apply ~jobs:1 st smo, Core.Engine.apply ~jobs:4 st smo) with
  | Ok a, Ok b ->
      let va = views a and vb = views b in
      check Alcotest.(list string) (tag ^ ": same bindings") (List.map fst va) (List.map fst vb);
      List.iter2
        (fun (n, v) (_, w) -> checkb (tag ^ ": equal " ^ n) true (Query.View.equal v w))
        va vb;
      Some a
  | Error a, Error b ->
      check Alcotest.string (tag ^ ": same rejection") (show_v a) (show_v b);
      None
  | Ok _, Error e -> Alcotest.failf "%s: only jobs=4 rejects: %s" tag (show_v e)
  | Error e, Ok _ -> Alcotest.failf "%s: only jobs=1 rejects: %s" tag (show_v e)

let test_jobs_agree () =
  let parallel = Obs.Metric.counter "discharge.parallel_batches" in
  let parallel0 = Obs.Metric.value parallel in
  List.iter
    (fun (seed, env, frags, c) ->
      let st = Core.State.of_compiled env frags c in
      let tag = Printf.sprintf "seed %d" seed in
      match pipeline seed st with
      | None -> ()
      | Some smos ->
          ignore
            (List.fold_left
               (fun st smo -> Option.bind st (fun st -> apply_both tag st smo))
               (Some st) smos))
    (Lazy.force compiled);
  (* The chain suite includes a rejected SMO (AE-TPC-fk). *)
  let env, frags = Workload.Chain.generate ~size:10 in
  let st = Core.State.of_compiled env frags (ok_exn (Fullc.Compile.compile env frags)) in
  List.iter
    (fun (label, smo) -> ignore (apply_both ("chain " ^ label) st smo))
    (Workload.Chain.smo_suite ~at:5);
  checkb "jobs=4 went through the parallel worker loop" true
    (Obs.Metric.value parallel > parallel0)

let () =
  Alcotest.run "random models"
    [
      ( "fuzzing",
        [
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "full compilation" `Quick test_compiles;
          Alcotest.test_case "roundtrips" `Quick test_roundtrips;
          Alcotest.test_case "mapping semantics" `Quick test_mapping_semantics;
          Alcotest.test_case "optimizer equivalence" `Quick test_optimizer_equivalence;
          Alcotest.test_case "state io" `Quick test_state_io_roundtrip;
          Alcotest.test_case "DSL roundtrip" `Quick test_dsl_roundtrip;
          Alcotest.test_case "evolution" `Quick test_evolution_on_random_models;
          Alcotest.test_case "differential vs full compiler" `Quick test_differential_vs_fullc;
          Alcotest.test_case "jobs=1 and jobs=4 agree" `Quick test_jobs_agree;
        ] );
    ]
