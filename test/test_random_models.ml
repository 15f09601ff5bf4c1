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
      check_rebuilds_client tag env.Query.Env.client;
      check_rebuilds_store tag env.Query.Env.store;
      check_ok (tag ^ " fragments") (Mapping.Fragments.well_formed env frags))
    (Lazy.force models)

let compiled =
  lazy
    (List.map
       (fun (seed, (env, frags)) ->
         match Fullc.Compile.compile env frags with
         | Ok st -> (seed, st)
         | Error e -> Alcotest.failf "seed %d failed to compile: %s" seed e)
       (Lazy.force models))

let test_compiles () =
  List.iter
    (fun (seed, st) -> check_wf (Printf.sprintf "seed %d" seed) st)
    (Lazy.force compiled)

(* [Engine.apply] one SMO at a time, asserting after every accepted step
   well-formed views, written non-nullable columns ({!check_written}), a
   child index that matches a recomputation ({!Schema_walk}), fragments
   and update views as the full-walk adaptation leaves them, with the
   type invariant and fragment indexes it rests on ({!Adapt_walk}), a
   [save] that
   matches the tree-walk encoder ({!State_io_tree}), and for a drop the
   views of the reference regeneration ({!Recompile}); the first rejection
   aborts. *)
let apply_checked tag st smos =
  List.fold_left
    (fun acc smo ->
      Result.bind acc (fun before ->
          let r = Core.Engine.apply before smo in
          Result.iter
            (fun (st : Core.State.t) ->
              let tag = tag ^ " after " ^ Core.Smo.name smo in
              check_wf tag st;
              check_written tag st;
              Adapt_walk.check tag before smo st;
              Recompile.check tag before smo st;
              Schema_walk.check tag st.Core.State.env.Query.Env.client;
              checkb (tag ^ ": save matches the tree-walk encoder") true
                (String.equal (Surface.State_io.save st) (State_io_tree.save st)))
            r;
          r))
    (Ok st) smos

let test_roundtrips () =
  List.iter
    (fun (seed, (st : Core.State.t)) ->
      match
        Roundtrip.Check.roundtrips st.env st.query_views st.update_views
          ~samples:8 ~base_seed:(seed * 1000) ()
      with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "seed %d roundtrip: %a" seed Roundtrip.Check.pp_failure f)
    (Lazy.force compiled)

let test_mapping_semantics () =
  (* The store image of every sampled state is M-related to the state. *)
  List.iter
    (fun (seed, (st : Core.State.t)) ->
      let inst = Roundtrip.Generate.instance ~seed:(seed * 77) st.env.Query.Env.client in
      let store = ok_exn (Query.View.apply_update_views st.env st.update_views inst) in
      checkb (Printf.sprintf "seed %d related" seed) true
        (Mapping.Fragments.related st.env inst store st.fragments))
    (Lazy.force compiled)

let test_optimizer_equivalence () =
  List.iter
    (fun (seed, (env, frags)) ->
      match Fullc.Compile.compile ~validate:false ~optimize:true env frags with
      | Error e -> Alcotest.failf "seed %d optimized compile: %s" seed e
      | Ok opt -> (
          match
            Roundtrip.Check.roundtrips env opt.Core.State.query_views
              opt.Core.State.update_views ~samples:6 ~base_seed:(seed * 500) ()
          with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "seed %d optimized roundtrip: %a" seed Roundtrip.Check.pp_failure f))
    (Lazy.force models)

let test_state_io_roundtrip () =
  List.iter
    (fun (seed, st) ->
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
      match Surface.Parser.model text with
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
  (* Every accepted step of the pipeline must keep the mapping sound. *)
  List.iter
    (fun (seed, st) ->
      match random_pipeline seed st with
      | None -> ()
      | Some smos ->
          let rec go st = function
            | [] -> ()
            | smo :: rest -> (
                let tag = Printf.sprintf "seed %d" seed in
                match apply_checked tag st [ smo ] with
                | Error _ -> () (* some random neighborhoods rightly refuse *)
                | Ok st' -> (
                    match
                      Roundtrip.Check.roundtrips st'.Core.State.env st'.Core.State.query_views
                        st'.Core.State.update_views ~samples:5 ~base_seed:(seed * 331) ()
                    with
                    | Ok _ -> go st' rest
                    | Error f ->
                        Alcotest.failf "%s after %s: evolved roundtrip: %a" tag (Core.Smo.name smo)
                          Roundtrip.Check.pp_failure f))
          in
          go st smos)
    (Lazy.force compiled)

(* The random pipelines through a session: each accepted step is held
   against the full-walk adaptation ({!Adapt_walk}) and, for a drop, the
   rebuild and reference regeneration ({!Recompile}), and every state undo
   and then redo reach keeps the type invariant and fragment indexes. *)
let test_session_locality () =
  List.iter
    (fun (seed, st) ->
      match random_pipeline seed st with
      | None -> ()
      | Some smos ->
          let tag = Printf.sprintf "seed %d" seed in
          let holds what s =
            Adapt_walk.type_invariant (tag ^ what) (Core.Session.current s);
            Adapt_walk.indexes (tag ^ what) (Core.Session.current s)
          in
          let applied =
            List.fold_left
              (fun s smo ->
                match Core.Session.apply s smo with
                | Ok s' ->
                    let tag = tag ^ " after " ^ Core.Smo.name smo in
                    Adapt_walk.check tag (Core.Session.current s) smo (Core.Session.current s');
                    Recompile.check tag (Core.Session.current s) smo (Core.Session.current s');
                    s'
                | Error _ -> s)
              (Core.Session.start st) smos
          in
          let rec walk step what s =
            match step s with
            | None -> s
            | Some s' ->
                holds what s';
                walk step what s'
          in
          ignore (walk Core.Session.redo " redone" (walk Core.Session.undo " undone" applied)))
    (Lazy.force compiled)

let test_differential_vs_fullc () =
  (* Differential check of the incremental compiler: an SMO pipeline is
     applied step by step (up to its first refused SMO), and every view must
     be equivalent to the view a from-scratch full compilation of the same
     mapping produces.  The check runs on the state just before each
     shrinking SMO that follows an additive one, and on the final state: a
     drop regenerates its set's views with the full compiler, so checking
     only the end would not check the views the additive SMOs' surgery
     built.  [Containment.Check.subset] both ways is the primary oracle; where its
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
    let has_foj q = match Mapping.Views.stats q with n, _, _ -> n > 0 in
    if has_foj q_inc || has_foj q_full then empirical env dbs tag q_inc q_full
    else
      let subset a b = Containment.Check.subset env a b = Ok true in
      if not (subset q_inc q_full && subset q_full q_inc) then empirical env dbs tag q_inc q_full
  in
  let compare_with_fullc seed (st' : Core.State.t) =
    let env' = st'.Core.State.env in
    match Fullc.Compile.compile env' st'.Core.State.fragments with
    | Error e -> Alcotest.failf "seed %d: full compile of evolved mapping: %s" seed e
    | Ok full ->
        check_wf (Printf.sprintf "seed %d full compile" seed) full;
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
                      full.Core.State.update_views inst)))
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
          (Query.View.entity_view_bindings full.Core.State.query_views);
        List.iter
          (fun (a, q) ->
            match Query.View.assoc_view st'.Core.State.query_views a with
            | None -> Alcotest.failf "seed %d: no incremental assoc view for %s" seed a
            | Some qi -> equiv env' store_dbs (Printf.sprintf "seed %d assoc %s" seed a) qi q)
          (Query.View.assoc_view_bindings full.Core.State.query_views);
        (* Update views read the client state. *)
        List.iter
          (fun (t, q) ->
            match Query.View.table_view st'.Core.State.update_views t with
            | None -> Alcotest.failf "seed %d: no incremental update view for %s" seed t
            | Some qi -> equiv env' client_dbs (Printf.sprintf "seed %d table %s" seed t) qi q)
          (Query.View.update_view_bindings full.Core.State.update_views)
  in
  let shrinks = function
    | Core.Smo.Drop_entity _ | Core.Smo.Drop_property _ | Core.Smo.Drop_association _
    | Core.Smo.Refactor _ ->
        true
    | _ -> false
  in
  List.iter
    (fun (seed, st) ->
      match random_pipeline seed st with
      | None -> ()
      | Some smos ->
          (* [grown]: some SMO since the last check built views by surgery. *)
          let rec go ~grown st = function
            | [] -> compare_with_fullc seed st
            | smo :: rest -> (
                let checked = grown && shrinks smo in
                if checked then compare_with_fullc seed st;
                match apply_checked (Printf.sprintf "seed %d" seed) st [ smo ] with
                | Ok st' -> go ~grown:(not (shrinks smo)) st' rest
                | Error _ -> if not checked then compare_with_fullc seed st)
          in
          go ~grown:false st smos)
    (Lazy.force compiled)

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
          Alcotest.test_case "locality through undo and redo" `Quick test_session_locality;
          Alcotest.test_case "differential vs full compiler" `Quick test_differential_vs_fullc;
        ] );
    ]
