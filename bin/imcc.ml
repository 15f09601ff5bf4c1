(* imcc — the incremental mapping compiler, on the command line.

   The tool operates on built-in evaluation models (-m) or on model files in
   the surface syntax (-f, see lib/surface/parser.mli and examples/models):

     imcc models                        list the built-in models
     imcc show    (-m MODEL | -f FILE)  print schemas / fragments / views
     imcc compile (-m MODEL | -f FILE) [-o state.imcs]
                                        full compilation; optionally persist
                                        the compiled state
     imcc evolve  (-m MODEL [-s SMO] | -f FILE --script CHANGES.smo [-o OUT])
                                        apply SMOs incrementally, timed
     imcc roundtrip (-m MODEL | -f FILE) [-n N]
                                        empirical roundtrip check

   A -f FILE may be a model file (client/store/mapping sections) or a
   compiled state saved by `imcc compile -o` / `imcc evolve -o`; compiled
   states resume without re-running the full compiler — the workflow of the
   paper's Fig. 7. *)

open Cmdliner

let ok = function Ok x -> x | Error e -> Printf.eprintf "error: %s\n" e; exit 1

(* -- model registry -------------------------------------------------------- *)

type model = {
  mname : string;
  describe : string;
  load : size:int -> Query.Env.t * Mapping.Fragments.t;
  suite : (size:int -> (string * Core.Smo.t) list) option;
}

let models =
  [
    { mname = "paper"; describe = "the running example of Figs. 1/5 (stage 4)";
      load = (fun ~size:_ ->
        let s = Workload.Paper_example.stage4 in
        (s.Workload.Paper_example.env, s.Workload.Paper_example.fragments));
      suite = None };
    { mname = "chain"; describe = "the chain model of Fig. 8 (scaled by --size, default 100)";
      load = (fun ~size -> Workload.Chain.generate ~size);
      suite = Some (fun ~size -> Workload.Chain.smo_suite ~at:(max 1 (size / 2))) };
    { mname = "hub-rim"; describe = "the hub-and-rim model of Fig. 3 (N=2, M=3, TPH)";
      load = (fun ~size:_ -> Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tph);
      suite = None };
    { mname = "hub-rim-tpt"; describe = "hub-and-rim mapped table-per-type";
      load = (fun ~size:_ -> Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tpt);
      suite = None };
    { mname = "customer"; describe = Workload.Customer.stats ();
      load = (fun ~size:_ -> Workload.Customer.generate ());
      suite = Some (fun ~size:_ -> Workload.Customer.smo_suite ()) };
  ]

let find_model name =
  match List.find_opt (fun m -> m.mname = name) models with
  | Some m -> m
  | None ->
      Printf.eprintf "unknown model %s (try `imcc models`)\n" name;
      exit 1

let model_arg =
  let doc = "Built-in model to operate on (see `imcc models`)." in
  Arg.(value & opt (some string) None & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let file_arg =
  let doc = "Model file (.imc) or compiled state (.imcs) to operate on." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let out_arg =
  let doc = "Write the compiled state to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> s
  | exception Sys_error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

let write_file path s = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let looks_like_state text =
  let rec first i =
    if i >= String.length text then false
    else match text.[i] with ' ' | '\n' | '\t' | '\r' -> first (i + 1) | c -> c = '('
  in
  first 0

(* Load either a built-in model or a file; returns the environment and
   fragments, plus the compiled state when the file already carries views. *)
let load_input ~model ~file ~size =
  match model, file with
  | Some name, None ->
      let m = find_model name in
      let env, frags = m.load ~size in
      (env, frags, None)
  | None, Some path ->
      let text = read_file path in
      if looks_like_state text then begin
        let st = ok (Surface.State_io.load text) in
        (st.Core.State.env, st.Core.State.fragments, Some st)
      end
      else begin
        let env, frags = ok (Surface.Parser.model text) in
        (env, frags, None)
      end
  | Some _, Some _ ->
      Printf.eprintf "error: pass either -m or -f, not both\n";
      exit 1
  | None, None ->
      Printf.eprintf "error: pass -m MODEL or -f FILE\n";
      exit 1

let state_of ~env ~frags = function
  | Some st -> st
  | None -> ok (Fullc.Compile.compile env frags)

let size_arg =
  let doc = "Size parameter for scalable models (the chain's type count)." in
  Arg.(value & opt int 100 & info [ "size" ] ~docv:"N" ~doc)

(* -- observability ---------------------------------------------------------- *)

(* The non-zero counter deltas of [d] whose name starts with [prefix]. *)
let counters ~prefix (d : Obs.Metric.snapshot) =
  {
    Obs.Metric.counters =
      List.filter (fun (n, v) -> v <> 0 && String.starts_with ~prefix n) d.Obs.Metric.counters;
    gauges = [];
  }

let since before = Obs.Metric.diff before (Obs.Metric.snapshot ())

let trace_arg =
  let doc =
    "Record a hierarchical compilation trace and write it to $(docv) as Chrome \
     trace_event JSON (loadable in about:tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.json" ~doc)

let profile_arg =
  let doc = "Print the span tree and a per-phase aggregate when the command finishes." in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Run [f] with span collection on when --trace/--profile ask for it; export
   on the way out (also on exit 1 paths, which call [exit] inside [f]). *)
let with_obs ~trace ~profile f =
  if trace = None && not profile then f ()
  else begin
    Obs.Span.reset ();
    Obs.enable ();
    let finish () =
      Obs.disable ();
      (match trace with
      | None -> ()
      | Some path -> (
          match write_file path (Obs.Export.trace_json ~process:"imcc" ()) with
          | () -> Printf.printf "trace written to %s\n" path
          | exception Sys_error msg ->
              Printf.eprintf "warning: could not write trace: %s\n" msg));
      if profile then begin
        Format.printf "@.== span tree ==@.%a" Obs.Export.pp_tree ();
        Format.printf "@.== per-phase aggregate ==@.%a" Obs.Export.pp_aggregate ()
      end
    in
    at_exit finish;
    f ()
  end

(* -- commands --------------------------------------------------------------- *)

let models_cmd =
  let run () =
    List.iter (fun m -> Printf.printf "%-12s %s\n" m.mname m.describe) models
  in
  Cmd.v (Cmd.info "models" ~doc:"List the built-in models") Term.(const run $ const ())

let show_cmd =
  let schemas =
    Arg.(value & flag & info [ "schemas" ] ~doc:"Print the client and store schemas.")
  in
  let fragments = Arg.(value & flag & info [ "fragments" ] ~doc:"Print the mapping fragments.") in
  let views =
    Arg.(value & flag & info [ "views" ] ~doc:"Compile and print the query and update views.")
  in
  let run name file size schemas fragments views =
    let env, frags, _ = load_input ~model:name ~file ~size in
    let all = not (schemas || fragments || views) in
    if schemas || all then
      Format.printf "== client schema ==@.%a@.@.== store schema ==@.%a@.@." Edm.Schema.pp
        env.Query.Env.client Relational.Schema.pp env.Query.Env.store;
    if fragments || all then Format.printf "== mapping fragments ==@.%a@.@." Mapping.Fragments.pp frags;
    if views then begin
      let c = ok (Fullc.Compile.compile env frags) in
      Format.printf "== query views ==@.%a@.@.== update views ==@.%a@." Query.Pretty.query_views
        c.Core.State.query_views Query.Pretty.update_views c.Core.State.update_views
    end
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a model's schemas, fragments, or compiled views")
    Term.(const run $ model_arg $ file_arg $ size_arg $ schemas $ fragments $ views)

let compile_cmd =
  let no_validate =
    Arg.(value & flag & info [ "no-validate" ] ~doc:"Skip validation (view generation only).")
  in
  let run name file size no_validate output trace profile =
    with_obs ~trace ~profile @@ fun () ->
    let env, frags, _ = load_input ~model:name ~file ~size in
    let what = match name, file with Some n, _ -> n | _, Some f -> f | _ -> "?" in
    let before = Obs.Metric.snapshot () in
    let t0 = Unix.gettimeofday () in
    (* The checks [compile] would run, once, for their counts; then view
       generation alone. *)
    let report =
      if no_validate then { Fullc.Validate.cells_visited = 0; containment_checks = 0; covered_types = 0 }
      else ok (Fullc.Validate.run env frags)
    in
    let st = ok (Fullc.Compile.compile ~validate:false env frags) in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "full compilation of %s: %.3fs\n" what dt;
    Printf.printf "  fragments:          %d\n" (Mapping.Fragments.size frags);
    Printf.printf "  entity views:       %d\n"
      (List.length (Query.View.entity_view_bindings st.Core.State.query_views));
    Printf.printf "  update views:       %d\n"
      (List.length (Query.View.update_view_bindings st.Core.State.update_views));
    Printf.printf "  cells enumerated:   %d\n" report.Fullc.Validate.cells_visited;
    Printf.printf "  fk checks:          %d\n" report.Fullc.Validate.containment_checks;
    Format.printf "  containment stats:  %a@." Obs.Metric.pp
      (counters ~prefix:"containment." (since before));
    match output with
    | None -> ()
    | Some path ->
        write_file path (Surface.State_io.save st);
        Printf.printf "compiled state written to %s\n" path
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Run the full (baseline) mapping compiler on a model")
    Term.(const run $ model_arg $ file_arg $ size_arg $ no_validate $ out_arg
          $ trace_arg $ profile_arg)

let evolve_cmd =
  let smo_name =
    Arg.(value & opt (some string) None
         & info [ "s"; "smo" ] ~docv:"SMO" ~doc:"Apply only the named SMO (e.g. AE-TPT).")
  in
  let script_arg =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"FILE.smo" ~doc:"Apply the SMO script from this file.")
  in
  let run name file size smo_name script output trace profile =
    with_obs ~trace ~profile @@ fun () ->
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let t0 = Unix.gettimeofday () in
    let st = state_of ~env ~frags loaded in
    (match loaded with
    | Some _ -> Printf.printf "resumed compiled state\n\n"
    | None -> Printf.printf "bootstrap (full compilation): %.3fs\n\n" (Unix.gettimeofday () -. t0));
    match script with
    | Some path ->
        let smos = ok (Surface.Parser.script (read_file path)) in
        let st =
          List.fold_left
            (fun st smo ->
              match Core.Engine.apply_timed st smo with
              | Ok (st', t) ->
                  Format.printf "%-10s %.2f ms   %a@." (Core.Smo.name smo)
                    (t.Core.Engine.seconds *. 1000.)
                    Obs.Metric.pp t.Core.Engine.containment;
                  st'
              | Error e ->
                  Printf.eprintf "error: %s aborts: %s\n" (Core.Smo.show smo)
                    (Containment.Validation_error.show e);
                  exit 1)
            st smos
        in
        (match output with
        | None -> ()
        | Some path ->
            write_file path (Surface.State_io.save st);
            Printf.printf "evolved state written to %s\n" path)
    | None ->
        let suite =
          match name with
          | Some n -> (
              match (find_model n).suite with
              | Some s -> s ~size
              | None ->
                  Printf.eprintf "model %s has no SMO suite (try chain or customer)\n" n;
                  exit 1)
          | None ->
              Printf.eprintf "with -f, pass --script FILE.smo\n";
              exit 1
        in
        let selected =
          match smo_name with
          | None -> suite
          | Some s -> List.filter (fun (l, _) -> l = s) suite
        in
        if selected = [] then begin
          Printf.eprintf "unknown SMO; available: %s\n" (String.concat ", " (List.map fst suite));
          exit 1
        end;
        List.iter
          (fun (label, smo) ->
            match Core.Engine.apply_timed st smo with
            | Ok (_, t) ->
                Format.printf "%-10s %.2f ms   %a@." label (t.Core.Engine.seconds *. 1000.)
                  Obs.Metric.pp t.Core.Engine.containment
            | Error e ->
                Printf.printf "%-10s aborts: %s\n" label
                  (Containment.Validation_error.show e))
          selected
  in
  Cmd.v
    (Cmd.info "evolve" ~doc:"Apply SMOs (a built-in suite or a script file) incrementally")
    Term.(const run $ model_arg $ file_arg $ size_arg $ smo_name $ script_arg $ out_arg
          $ trace_arg $ profile_arg)

let roundtrip_cmd =
  let samples =
    Arg.(value & opt int 50 & info [ "n"; "samples" ] ~docv:"N" ~doc:"Number of random states.")
  in
  let run name file size samples =
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let st = state_of ~env ~frags loaded in
    match
      Roundtrip.Check.roundtrips st.Core.State.env st.Core.State.query_views
        st.Core.State.update_views ~samples ()
    with
    | Ok n -> Printf.printf "%d random client states roundtripped losslessly\n" n
    | Error f ->
        Format.printf "roundtrip FAILED:@.%a@." Roundtrip.Check.pp_failure f;
        exit 1
  in
  Cmd.v
    (Cmd.info "roundtrip" ~doc:"Empirically check that the compiled mapping roundtrips")
    Term.(const run $ model_arg $ file_arg $ size_arg $ samples)

let data_arg =
  let doc = "Client-state literal file (a `data { ... }` block)." in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"FILE" ~doc)

let query_cmd =
  let qtext =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"e.g. \"select Id, Name from Persons where is of Employee\"")
  in
  let plan_flag =
    Arg.(value & flag
         & info [ "plan" ] ~doc:"Print the physical plan the execution engine would run.")
  in
  let exec_flag =
    Arg.(value & flag
         & info [ "exec" ]
             ~doc:"Execute the physical plan against the store instance derived from --data and \
                   cross-check it against the naive evaluator.  Exits 1 when the physical and \
                   naive rows, or the client-side and store-side rows, disagree.")
  in
  let run name file size data qtext plan exec =
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let st = state_of ~env ~frags loaded in
    let env = st.Core.State.env in
    let q = ok (Surface.Parser.query env qtext) in
    let unfolded = ok (Query.Unfold.client_query env st.Core.State.query_views q) in
    Format.printf "-- client query@.%a@.@.-- unfolds over the store to@.%a@." Query.Pretty.query q
      Query.Pretty.query unfolded;
    let phys =
      if plan || exec then Some (ok (Exec.Planner.plan env unfolded)) else None
    in
    (match phys with
    | Some p when plan -> Format.printf "@.-- physical plan@.%s" (Exec.Plan.show p)
    | Some _ | None -> ());
    match data with
    | None ->
        if exec then begin
          Printf.eprintf "error: --exec needs a store instance; pass --data FILE\n";
          exit 1
        end
    | Some path ->
        let inst = ok (Surface.Parser.data env (read_file path)) in
        let store = ok (Query.View.apply_update_views env st.Core.State.update_views inst) in
        let client_rows = Query.Eval.rows_set env (Query.Eval.client_db inst) q in
        let store_rows = Query.Eval.rows_set env (Query.Eval.store_db store) unfolded in
        Format.printf "@.-- rows (over %s)@." path;
        List.iter (fun r -> Format.printf "%a@." Datum.Row.pp r) client_rows;
        let client_agree = List.equal Datum.Row.equal client_rows store_rows in
        Format.printf "@.client-side and store-side evaluation agree: %b@." client_agree;
        let exec_agree =
          match phys with
          | Some p when exec ->
              let db = Query.Eval.store_db store in
              let idb = Exec.Idb.make env db in
              let before = Obs.Metric.snapshot () in
              let t0 = Unix.gettimeofday () in
              let exec_rows = Exec.Run.rows idb p in
              let dt = Unix.gettimeofday () -. t0 in
              let delta = counters ~prefix:"exec." (since before) in
              let naive = List.sort Datum.Row.compare (Query.Eval.rows env db unfolded) in
              let agree =
                List.equal Datum.Row.equal naive (List.sort Datum.Row.compare exec_rows)
              in
              Format.printf "@.-- physical execution@.";
              Format.printf "%d rows in %.3f ms; agrees with naive evaluation: %b@."
                (List.length exec_rows) (dt *. 1000.) agree;
              List.iter
                (fun (name, v) -> Format.printf "  %-24s %d@." name v)
                delta.Obs.Metric.counters;
              agree
          | Some _ | None -> true
        in
        if not (client_agree && exec_agree) then begin
          Printf.eprintf "error: the evaluations of the query disagree\n";
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Translate (and optionally evaluate) a client query by view unfolding")
    Term.(const run $ model_arg $ file_arg $ size_arg $ data_arg $ qtext $ plan_flag $ exec_flag)

let apply_cmd =
  let script_arg =
    Arg.(required & opt (some string) None
         & info [ "script" ] ~docv:"FILE.dml" ~doc:"Client-side update script.")
  in
  let verify_flag =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Also translate through the whole-store oracle (diff the store images \
                   before and after) and check that both produce byte-identical SQL and \
                   equal store states.")
  in
  let run name file size data script verify trace profile =
    with_obs ~trace ~profile @@ fun () ->
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let st = state_of ~env ~frags loaded in
    let env = st.Core.State.env in
    let uv = st.Core.State.update_views in
    let inst =
      match data with
      | Some path -> ok (Surface.Parser.data env (read_file path))
      | None -> Edm.Instance.empty
    in
    let delta = ok (Surface.Parser.dml env (read_file script)) in
    let before = Obs.Metric.snapshot () in
    let sql_script, _new_client, new_store =
      ok (Dml.Translate.translate env uv ~old_client:inst ~delta)
    in
    Format.printf "-- translated DML@.%s@." (Dml.Translate.to_sql sql_script);
    let propagated = counters ~prefix:"ivm." (since before) in
    if propagated.Obs.Metric.counters <> [] then begin
      Printf.printf "-- rows propagated per operator\n";
      List.iter (fun (n, v) -> Printf.printf "   %-20s %d\n" n v) propagated.Obs.Metric.counters
    end;
    let old_store = ok (Query.View.apply_update_views env uv inst) in
    let applied = ok (Dml.Translate.apply_script old_store sql_script) in
    if not (Relational.Instance.equal applied new_store) then begin
      Printf.eprintf "error: script does not reproduce the new store\n";
      exit 1
    end;
    Format.printf "-- resulting store state@.%a@." Relational.Instance.pp new_store;
    if verify then begin
      let sql2, _, store2 = ok (Dml.Translate.full_diff env uv ~old_client:inst ~delta) in
      if Dml.Translate.to_sql sql2 = Dml.Translate.to_sql sql_script
         && Relational.Instance.equal store2 new_store
      then Printf.printf "verify: the whole-store oracle agrees\n"
      else begin
        Printf.eprintf "verify FAILED: the whole-store oracle disagrees\n";
        Printf.eprintf "-- oracle\n%s" (Dml.Translate.to_sql sql2);
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:"Translate a client update through the incremental view-maintenance runtime \
             (lib/ivm) and apply it to the store")
    Term.(const run $ model_arg $ file_arg $ size_arg $ data_arg $ script_arg $ verify_flag
          $ trace_arg $ profile_arg)

let validate_cmd =
  let run name file size trace profile =
    with_obs ~trace ~profile @@ fun () ->
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let st = state_of ~env ~frags loaded in
    let before = Obs.Metric.snapshot () in
    let t0 = Unix.gettimeofday () in
    match Fullc.Validate.run st.Core.State.env st.Core.State.fragments with
    | Error e ->
        Printf.printf "mapping INVALID: %s\n" e;
        exit 1
    | Ok report ->
        Printf.printf "mapping valid (%.3fs)\n" (Unix.gettimeofday () -. t0);
        Printf.printf "  cells enumerated:  %d\n" report.Fullc.Validate.cells_visited;
        Printf.printf "  covered types:     %d\n" report.Fullc.Validate.covered_types;
        Printf.printf "  fk checks:         %d\n" report.Fullc.Validate.containment_checks;
        Format.printf "  containment stats: %a@." Obs.Metric.pp
          (counters ~prefix:"containment." (since before))
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Run full mapping validation (roundtripping safety checks)")
    Term.(const run $ model_arg $ file_arg $ size_arg $ trace_arg $ profile_arg)

let lint_cmd =
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,text) (one finding per line plus a summary) or \
                   $(b,json) (the machine-readable CI artifact).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit non-zero on warning-severity findings too, not just errors.")
  in
  let run name file size format strict trace profile =
    with_obs ~trace ~profile @@ fun () ->
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let t0 = Unix.gettimeofday () in
    (* The view passes need compiled views; a loaded state already carries
       them, otherwise generate without validation — lint is the cheap path,
       it must not pay the obligation engine.  If generation itself fails,
       lint still reports the mapping-level passes plus an L000 notice. *)
    let views, extra =
      match loaded with
      | Some st -> (Some (st.Core.State.query_views, st.Core.State.update_views), [])
      | None -> (
          match Fullc.Compile.compile ~validate:false env frags with
          | Ok c -> (Some (c.Core.State.query_views, c.Core.State.update_views), [])
          | Error e ->
              ( None,
                [ Lint.Diag.makef ~code:"L000" ~severity:Lint.Diag.Warning ~loc:Lint.Diag.Model
                    "view generation failed, view passes skipped: %s" e ] ))
    in
    let ds = Lint.Diag.sort (extra @ Lint.Analyze.run ?views env frags) in
    let dt = Unix.gettimeofday () -. t0 in
    (match format with
    | `Text ->
        print_string (Lint.Diag.to_text ds);
        Printf.printf "lint completed in %.2f ms\n" (dt *. 1000.)
    | `Json -> print_string (Lint.Diag.to_json ds));
    let errs, warns, _ = Lint.Diag.count ds in
    if errs > 0 || (strict && warns > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static mapping analyzer (cheap syntactic diagnostics, no obligation \
             discharge); the exit code gates CI")
    Term.(const run $ model_arg $ file_arg $ size_arg $ format_arg $ strict_arg $ trace_arg
          $ profile_arg)

let diff_cmd =
  let target_arg =
    Arg.(required & opt (some string) None
         & info [ "target" ] ~docv:"FILE.imc" ~doc:"The edited model (its client section).")
  in
  let run name file size target output =
    let env, frags, loaded = load_input ~model:name ~file ~size in
    let st = state_of ~env ~frags loaded in
    (* The differ only needs the target's client schema: its store and
       mapping may be the old ones. *)
    let target_client = ok (Surface.Parser.client (read_file target)) in
    let smos = ok (Modef.Diff.infer st ~target:target_client) in
    let text = Surface.Print_dsl.script smos in
    print_string text;
    match output with
    | None -> ()
    | Some path ->
        write_file path text;
        Printf.printf "// written to %s\n" path
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Infer an SMO script from an edited client model (the MoDEF workflow)")
    Term.(const run $ model_arg $ file_arg $ size_arg $ target_arg $ out_arg)

let () =
  let doc = "incremental compilation of object-to-relational mappings (SIGMOD'13)" in
  let info = Cmd.info "imcc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ models_cmd; show_cmd; compile_cmd; evolve_cmd; roundtrip_cmd; query_cmd; apply_cmd;
            validate_cmd; lint_cmd; diff_cmd ]))
