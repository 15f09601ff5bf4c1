(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4.2).

     fig2  — the compiled query view of the running example (Fig. 2)
     fig4  — full-compilation time of the hub-and-rim model (Fig. 4)
     fig9  — SMO timings on the 1002-type chain model (Fig. 9)
     fig10 — SMO timings on the customer-like model (Fig. 10)
     ablation — design-choice measurements called out in DESIGN.md
     par   — obligation-discharge jobs sweep (1/2/4); writes BENCH_par.json
     obs   — per-phase span breakdown via lib/obs; writes BENCH_obs.json
     lint  — static lint vs full validation (E11); writes BENCH_lint.json
     ivm   — update-translation scaling, IVM vs full diff; writes BENCH_ivm.json
     exec  — physical execution vs naive evaluation; writes BENCH_exec.json

   `dune exec bench/main.exe` runs everything; pass a subset of the mode
   names to restrict, and `--chain-size N` to scale the Fig. 9 model. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One Bechamel micro-benchmark: OLS estimate of ns/run. *)
let measure_ns name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  match Test.elements test with
  | [ elt ] -> (
      let b = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
      let ols =
        Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
      in
      let o = Analyze.one ols Toolkit.Instance.monotonic_clock b in
      match Analyze.OLS.estimates o with Some [ ns ] -> ns | Some _ | None -> nan)
  | _ -> nan

let pp_seconds fmt s =
  if s < 1e-3 then Format.fprintf fmt "%8.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%8.2fms" (s *. 1e3)
  else Format.fprintf fmt "%8.2fs " s

let header title = Printf.printf "\n=== %s ===\n%!" title

let write_bench_json ~path ~label content =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content);
  Printf.printf "\n%s written to %s\n%!" label path

(* ------------------------------------------------------------------ *)
(* Fig. 2: the query view of the running example, compiled             *)
(* incrementally from the Example 1-7 SMO pipeline.                    *)
(* ------------------------------------------------------------------ *)

let paper_pipeline () =
  let module P = Workload.Paper_example in
  let ok = function Ok x -> x | Error e -> failwith e in
  let ok_v = function
    | Ok x -> x
    | Error e -> failwith (Containment.Validation_error.show e)
  in
  let st = ok (Core.State.bootstrap P.stage1.P.env P.stage1.P.fragments) in
  let employee =
    Edm.Entity_type.derived ~name:"Employee" ~parent:"Person"
      [ ("Department", Datum.Domain.String) ]
  in
  let customer =
    Edm.Entity_type.derived ~name:"Customer" ~parent:"Person"
      [ ("CredScore", Datum.Domain.Int); ("BillAddr", Datum.Domain.String) ]
  in
  let emp_table =
    Relational.Table.make ~name:"Emp" ~key:[ "Id" ]
      ~fks:[ { Relational.Table.fk_columns = [ "Id" ]; ref_table = "HR"; ref_columns = [ "Id" ] } ]
      [ ("Id", Datum.Domain.Int, `Not_null); ("Dept", Datum.Domain.String, `Null) ]
  in
  let client_table =
    Relational.Table.make ~name:"Client" ~key:[ "Cid" ]
      ~fks:[ { Relational.Table.fk_columns = [ "Eid" ]; ref_table = "Emp"; ref_columns = [ "Id" ] } ]
      [ ("Cid", Datum.Domain.Int, `Not_null); ("Eid", Datum.Domain.Int, `Null);
        ("Name", Datum.Domain.String, `Null); ("Score", Datum.Domain.Int, `Null);
        ("Addr", Datum.Domain.String, `Null) ]
  in
  let smos =
    [
      Core.Smo.Add_entity
        { entity = employee; alpha = [ "Id"; "Department" ]; p_ref = Some "Person";
          table = emp_table; fmap = [ ("Id", "Id"); ("Department", "Dept") ] };
      Core.Smo.Add_entity
        { entity = customer; alpha = [ "Id"; "Name"; "CredScore"; "BillAddr" ]; p_ref = None;
          table = client_table;
          fmap = [ ("Id", "Cid"); ("Name", "Name"); ("CredScore", "Score"); ("BillAddr", "Addr") ] };
      Core.Smo.Add_assoc_fk
        { assoc =
            { Edm.Association.name = "Supports"; end1 = "Customer"; end2 = "Employee";
              mult1 = Edm.Association.Many; mult2 = Edm.Association.Zero_or_one };
          table = "Client";
          fmap = [ ("Customer.Id", "Cid"); ("Employee.Id", "Eid") ] };
    ]
  in
  ok_v (Core.Engine.apply_all st smos)

(* A client state with [n] entities over the paper pipeline's schema: a third
   each of plain Persons, Employees and Customers, plus Supports links
   pairing customers with employees.  Shared by the ivm and exec modes. *)
let paper_instance n =
  let open Datum in
  let third = max 1 (n / 3) in
  let base = ref Edm.Instance.empty in
  for i = 0 to third - 1 do
    base :=
      Edm.Instance.add_entity ~set:"Persons"
        (Edm.Instance.entity ~etype:"Person"
           [ ("Id", Value.Int i); ("Name", Value.String (Printf.sprintf "p%d" i)) ])
        !base;
    base :=
      Edm.Instance.add_entity ~set:"Persons"
        (Edm.Instance.entity ~etype:"Employee"
           [ ("Id", Value.Int (i + third)); ("Name", Value.String (Printf.sprintf "e%d" i));
             ("Department", Value.String (if i mod 2 = 0 then "Sales" else "Support")) ])
        !base;
    base :=
      Edm.Instance.add_entity ~set:"Persons"
        (Edm.Instance.entity ~etype:"Customer"
           [ ("Id", Value.Int (i + (2 * third))); ("Name", Value.String (Printf.sprintf "c%d" i));
             ("CredScore", Value.Int (500 + i)); ("BillAddr", Value.String "1 Oak St") ])
        !base;
    base :=
      Edm.Instance.add_link ~assoc:"Supports"
        (Row.of_list
           [ ("Customer.Id", Value.Int (i + (2 * third))); ("Employee.Id", Value.Int (i + third)) ])
        !base
  done;
  !base

let fig2 () =
  header "Fig. 2 -- query view of the Fig. 1 mapping, compiled incrementally";
  let st = paper_pipeline () in
  (match Query.View.entity_view st.Core.State.query_views "Person" with
  | Some v -> Format.printf "%a@." Query.Pretty.view v
  | None -> print_endline "missing Person view!");
  match Query.View.assoc_view st.Core.State.query_views "Supports" with
  | Some v -> Format.printf "@.-- Supports association view@.%a@." Query.Pretty.view v
  | None -> print_endline "missing Supports view!"

(* ------------------------------------------------------------------ *)
(* Fig. 4: full compilation of the hub-and-rim model.                  *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig. 4 -- full-compilation time of the hub-and-rim model (TPH into one table)";
  Printf.printf "%3s %3s %6s %6s  %-20s %-12s\n%!" "N" "M" "types" "atoms" "TPH" "TPT";
  let budget = 30.0 in
  let atom_budget = 24 in
  List.iter
    (fun n ->
      let over_budget = ref false in
      List.iter
        (fun m ->
          let types = Workload.Hub_rim.type_count ~n ~m in
          let atoms = Workload.Hub_rim.atom_count ~n ~m in
          let tpt_time =
            let env, frags = Workload.Hub_rim.generate ~n ~m ~style:`Tpt in
            let r, dt = wall (fun () -> Fullc.Compile.compile env frags) in
            match r with Ok _ -> Format.asprintf "%a" pp_seconds dt | Error e -> "error: " ^ e
          in
          let tph_time =
            if !over_budget || atoms > atom_budget then
              Printf.sprintf "cutoff (2^%d cells)" atoms
            else
              let env, frags = Workload.Hub_rim.generate ~n ~m ~style:`Tph in
              let r, dt = wall (fun () -> Fullc.Compile.compile env frags) in
              if dt > budget then over_budget := true;
              match r with Ok _ -> Format.asprintf "%a" pp_seconds dt | Error e -> "error: " ^ e
          in
          Printf.printf "%3d %3d %6d %6d  %-20s %-12s\n%!" n m types atoms tph_time tpt_time)
        [ 1; 2; 3; 4; 5; 6; 8; 10 ])
    [ 1; 2; 3; 4; 5 ];
  print_endline
    "(TPH full compilation blows up exponentially in the atom count, the shape of the\n\
    \ paper's Fig. 4; per-type tables stay flat, the <0.2s contrast of Section 1.1.)"

(* ------------------------------------------------------------------ *)
(* Figs. 9 & 10: incremental SMO timings vs. full recompilation.       *)
(* ------------------------------------------------------------------ *)

let smo_table ~baseline st suite =
  Printf.printf "%-10s %-12s %-10s %s\n%!" "SMO" "time" "speedup" "notes";
  List.iter
    (fun (label, smo) ->
      let outcome = Core.Engine.apply st smo in
      let ns = measure_ns label (fun () -> ignore (Core.Engine.apply st smo)) in
      let s = ns /. 1e9 in
      let note =
        match outcome with
        | Ok _ -> ""
        | Error e ->
            (* Validation aborts are timed too: the paper reports AE-TPC
               failures of exactly this shape (Section 4.2). *)
            let e = Containment.Validation_error.show e in
            "aborts: " ^ (if String.length e > 60 then String.sub e 0 60 ^ "..." else e)
      in
      Printf.printf "%-10s %-12s %-10s %s\n%!" label
        (Format.asprintf "%a" pp_seconds s)
        (Printf.sprintf "%.0fx" (baseline /. s))
        note)
    suite

let fig9 ~chain_size () =
  header (Printf.sprintf "Fig. 9 -- SMO timings on the %d-type chain model" chain_size);
  let env, frags = Workload.Chain.generate ~size:chain_size in
  let compiled, full_time = wall (fun () -> Fullc.Compile.compile env frags) in
  match compiled with
  | Error e -> Printf.printf "full compilation failed: %s\n" e
  | Ok c ->
      Printf.printf "full compilation baseline: %s  (the paper's EF baseline: 15 minutes)\n\n%!"
        (Format.asprintf "%a" pp_seconds full_time);
      let st = Core.State.of_compiled env frags c in
      smo_table ~baseline:full_time st (Workload.Chain.smo_suite ~at:(chain_size / 2))

let fig10 () =
  header "Fig. 10 -- SMO timings on the customer-like model";
  Printf.printf "model: %s\n%!" (Workload.Customer.stats ());
  let env, frags = Workload.Customer.generate () in
  let compiled, full_time = wall (fun () -> Fullc.Compile.compile env frags) in
  match compiled with
  | Error e -> Printf.printf "full compilation failed: %s\n" e
  | Ok c ->
      Printf.printf "full compilation baseline: %s  (the paper's EF baseline: 8 hours)\n\n%!"
        (Format.asprintf "%a" pp_seconds full_time);
      let st = Core.State.of_compiled env frags c in
      smo_table ~baseline:full_time st (Workload.Customer.smo_suite ())

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5).                                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation -- incremental validation scope vs. full revalidation";
  let env, frags = Workload.Chain.generate ~size:200 in
  (match Fullc.Compile.compile env frags with
  | Error e -> Printf.printf "chain compile failed: %s\n" e
  | Ok c -> (
      let st = Core.State.of_compiled env frags c in
      match List.assoc_opt "AE-TPT" (Workload.Chain.smo_suite ~at:100) with
      | None -> ()
      | Some smo -> (
          match Core.Engine.apply st smo with
          | Error e -> Printf.printf "AE-TPT failed: %s\n" (Containment.Validation_error.show e)
          | Ok st' ->
              let inc_ns = measure_ns "inc" (fun () -> ignore (Core.Engine.apply st smo)) in
              let _, full_reval =
                wall (fun () ->
                    Fullc.Validate.run st'.Core.State.env st'.Core.State.fragments
                      st'.Core.State.update_views)
              in
              Printf.printf
                "AE-TPT on chain-200: neighborhood checks %s; full revalidation of the evolved \
                 mapping %s (%.0fx)\n%!"
                (Format.asprintf "%a" pp_seconds (inc_ns /. 1e9))
                (Format.asprintf "%a" pp_seconds full_reval)
                (full_reval /. (inc_ns /. 1e9)))));
  header "Ablation -- direct LOJ/UNION route vs. generic FOJ route (Section 6)";
  let st = paper_pipeline () in
  let env = st.Core.State.env in
  (match Fullc.Compile.compile ~validate:false env st.Core.State.fragments with
  | Error e -> Printf.printf "full view generation failed: %s\n" e
  | Ok full ->
      let gen_ns =
        measure_ns "fullgen" (fun () ->
            ignore (Fullc.Compile.compile ~validate:false env st.Core.State.fragments))
      in
      Printf.printf "generic FOJ view generation (paper example): %s\n%!"
        (Format.asprintf "%a" pp_seconds (gen_ns /. 1e9));
      let agree = ref true in
      for seed = 0 to 19 do
        let inst = Roundtrip.Generate.instance ~seed env.Query.Env.client in
        match
          ( Query.View.apply_update_views env st.Core.State.update_views inst,
            Query.View.apply_update_views env full.Fullc.Compile.update_views inst )
        with
        | Ok a, Ok b -> if not (Relational.Instance.equal a b) then agree := false
        | _, _ -> agree := false
      done;
      Printf.printf
        "incremental (direct LOJ/UNION) views == full (FOJ+COALESCE) views on 20 sampled states: %b\n%!"
        !agree);
  header "Ablation -- view optimizer (Section 6): join shapes with/without";
  let shape_of views =
    List.fold_left
      (fun (f, l, u) (_, v) ->
        let f', l', u' = Fullc.Optimize.stats (v : Query.View.t).Query.View.query in
        (f + f', l + l', u + u'))
      (0, 0, 0) views
  in
  List.iter
    (fun (label, env, frags) ->
      match
        ( Fullc.Compile.compile ~validate:false env frags,
          Fullc.Compile.compile ~validate:false ~optimize:true env frags )
      with
      | Ok plain, Ok opt ->
          let fp, lp, up = shape_of (Query.View.entity_view_bindings plain.Fullc.Compile.query_views) in
          let fo, lo, uo = shape_of (Query.View.entity_view_bindings opt.Fullc.Compile.query_views) in
          Printf.printf
            "%-14s query views: plain FOJ=%d LOJ=%d UNION=%d  ->  optimized FOJ=%d LOJ=%d UNION=%d\n%!"
            label fp lp up fo lo uo
      | Error e, _ | _, Error e -> Printf.printf "%-14s error: %s\n" label e)
    [
      (let () = () in
       let p = Workload.Paper_example.stage4 in
       ("paper", p.Workload.Paper_example.env, p.Workload.Paper_example.fragments));
      (let env, frags = Workload.Hub_rim.generate ~n:2 ~m:2 ~style:`Tph in
       ("hub-rim TPH", env, frags));
      (let env, frags = Workload.Chain.generate ~size:20 in
       ("chain-20", env, frags));
    ];
  header "Ablation -- containment-check memoization";
  (let env, frags = Workload.Chain.generate ~size:200 in
   match Fullc.Compile.compile env frags with
   | Error e -> Printf.printf "chain compile failed: %s\n" e
   | Ok c ->
       let st = Core.State.of_compiled env frags c in
       let suite = Workload.Chain.smo_suite ~at:100 in
       let run_suite () =
         List.iter (fun (_, smo) -> ignore (Core.Engine.apply st smo)) suite
       in
       let cold_ns = measure_ns "cold" run_suite in
       Containment.Check.set_caching true;
       Containment.Check.clear_cache ();
       run_suite ();
       (* warm: every check now hits the memo *)
       let warm_ns = measure_ns "warm" run_suite in
       let hits0 = Obs.Metric.value Containment.Check.cache_hits in
       let checks0 = Obs.Metric.value Containment.Check.checks in
       run_suite ();
       Containment.Check.set_caching false;
       Printf.printf
         "full SMO suite on chain-200: cold %s, memoized %s (%.1fx); warm run: %d checks answered \
          from cache (%d re-proved)\n%!"
         (Format.asprintf "%a" pp_seconds (cold_ns /. 1e9))
         (Format.asprintf "%a" pp_seconds (warm_ns /. 1e9))
         (cold_ns /. warm_ns)
         (Obs.Metric.value Containment.Check.cache_hits - hits0)
         (Obs.Metric.value Containment.Check.checks - checks0));
  header "Ablation -- containment-checker work per SMO (chain-200)";
  let env, frags = Workload.Chain.generate ~size:200 in
  match Fullc.Compile.compile env frags with
  | Error e -> Printf.printf "chain compile failed: %s\n" e
  | Ok c ->
      let st = Core.State.of_compiled env frags c in
      List.iter
        (fun (label, smo) ->
          match Core.Engine.apply_timed st smo with
          | Ok (_, t) ->
              Format.printf "%-10s %a   %a@." label pp_seconds t.Core.Engine.seconds
                Obs.Metric.pp t.Core.Engine.containment
          | Error _ -> Printf.printf "%-10s (aborts)\n%!" label)
        (Workload.Chain.smo_suite ~at:100)

(* ------------------------------------------------------------------ *)
(* Parallel obligation discharge: jobs sweep over one big batch.       *)
(* ------------------------------------------------------------------ *)

let par () =
  header "Parallel discharge -- one obligation batch, jobs in {1, 2, 4}";
  let models = 40 in
  let base_obls =
    List.concat_map
      (fun seed ->
        let env, frags = Workload.Random_model.generate ~seed () in
        match Fullc.Update_views.all ~optimize:false env frags with
        | Error _ -> []
        | Ok uv -> (
            match Fullc.Validate.fk_obligations env frags uv with
            | Ok obls -> obls
            | Error _ -> []))
      (List.init models Fun.id)
  in
  (* Replicate the batch so the measurement amortizes domain spawning; the
     cache is off, so every copy is re-proven. *)
  let target = 4000 in
  let reps = max 1 ((target + List.length base_obls - 1) / List.length base_obls) in
  let obls = List.concat (List.init reps (fun _ -> base_obls)) in
  Printf.printf
    "batch: %d fk obligations (%d from %d random models, replicated x%d); %d cores\n\n%!"
    (List.length obls) (List.length base_obls) models reps
    (Domain.recommended_domain_count ());
  let verdict = function
    | Ok () -> "ok"
    | Error e -> "fail: " ^ Containment.Validation_error.show e
  in
  (* Best of 5 interleaved rounds: domain spawn cost is in the measurement;
     scheduler and allocator noise (which arrives in bursts on shared
     machines) hits every jobs value alike and is then minimized away. *)
  let sweep_jobs = [ 1; 2; 4 ] in
  let best = Hashtbl.create 3 in
  let last = Hashtbl.create 3 in
  for _ = 1 to 5 do
    List.iter
      (fun jobs ->
        let r, dt = wall (fun () -> Containment.Discharge.run ~jobs obls) in
        Hashtbl.replace last jobs r;
        match Hashtbl.find_opt best jobs with
        | Some b when b <= dt -> ()
        | _ -> Hashtbl.replace best jobs dt)
      sweep_jobs
  done;
  let sweep =
    List.map
      (fun jobs -> (jobs, Hashtbl.find best jobs, verdict (Hashtbl.find last jobs)))
      sweep_jobs
  in
  let base = match sweep with (_, dt, _) :: _ -> dt | [] -> nan in
  let base_verdict = match sweep with (_, _, v) :: _ -> v | [] -> "?" in
  List.iter
    (fun (jobs, dt, v) ->
      Printf.printf "jobs=%d  %s  speedup %.2fx  verdict %s%s\n%!" jobs
        (Format.asprintf "%a" pp_seconds dt)
        (base /. dt) v
        (if v = base_verdict then "" else "  <-- MISMATCH"))
    sweep;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"models\": %d,\n  \"obligations\": %d,\n  \"cores\": %d,\n  \"sweep\": ["
       models (List.length obls)
       (Domain.recommended_domain_count ()));
  List.iteri
    (fun i (jobs, dt, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"jobs\": %d, \"seconds\": %.6f, \"verdict\": %S }" jobs dt v))
    sweep;
  Buffer.add_string buf "\n  ]\n}\n";
  write_bench_json ~path:"BENCH_par.json" ~label:"jobs sweep" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Per-phase span breakdown (lib/obs): where the compile time goes.    *)
(* ------------------------------------------------------------------ *)

let obs_workloads ~chain_size =
  let size = min chain_size 200 in
  [
    ("paper-pipeline", fun () -> ignore (paper_pipeline ()));
    ( "chain-full-compile",
      fun () ->
        let env, frags = Workload.Chain.generate ~size in
        ignore (Fullc.Compile.compile env frags) );
    ( "chain-smo-suite",
      fun () ->
        let env, frags = Workload.Chain.generate ~size in
        match Fullc.Compile.compile env frags with
        | Error _ -> ()
        | Ok c ->
            let st = Core.State.of_compiled env frags c in
            List.iter
              (fun (_, smo) -> ignore (Core.Engine.apply st smo))
              (Workload.Chain.smo_suite ~at:(size / 2)) );
    ( "customer-smo-suite",
      fun () ->
        let env, frags = Workload.Customer.generate () in
        match Fullc.Compile.compile env frags with
        | Error _ -> ()
        | Ok c ->
            let st = Core.State.of_compiled env frags c in
            List.iter
              (fun (_, smo) -> ignore (Core.Engine.apply st smo))
              (Workload.Customer.smo_suite ()) );
  ]

let obs_report ~chain_size () =
  header "Observability -- per-phase span breakdown (lib/obs)";
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"workloads\": [";
  List.iteri
    (fun i (name, run) ->
      Obs.Span.reset ();
      Obs.enable ();
      run ();
      Obs.disable ();
      Printf.printf "\n-- %s --\n%!" name;
      Format.printf "%a%!" Obs.Export.pp_aggregate ();
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\n    { \"name\": %S, \"phases\": [" name);
      List.iteri
        (fun j (phase, a) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n      { \"phase\": %S, \"count\": %d, \"total_ms\": %.3f, \"self_ms\": %.3f }"
               phase a.Obs.Export.count
               (a.Obs.Export.total_s *. 1e3)
               (a.Obs.Export.self_s *. 1e3)))
        (Obs.Export.aggregate ());
      Buffer.add_string buf "\n    ] }")
    (obs_workloads ~chain_size);
  Buffer.add_string buf "\n  ]\n}\n";
  write_bench_json ~path:"BENCH_obs.json" ~label:"per-phase aggregates" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* IVM: update-translation cost, O(delta) vs O(instance) (E9).         *)
(* ------------------------------------------------------------------ *)

let ivm () =
  header "IVM -- update translation: delta propagation vs full store diff";
  let module P = Workload.Paper_example in
  let ok = function Ok x -> x | Error e -> failwith e in
  let s4 = P.stage4 in
  let env = s4.P.env and frags = s4.P.fragments in
  let uv =
    (ok (Fullc.Compile.compile ~validate:false env frags)).Fullc.Compile.update_views
  in
  let open Datum in
  (* The measured update: insert [d] fresh Customers; its inverse deletes
     them again.  Measuring the insert/delete pair on a threaded handle
     leaves the state unchanged between repetitions, so Bechamel can run the
     thunk as often as it likes; each pair is two translations. *)
  let fresh_id k = 1_000_000 + k in
  let insert_delta d =
    List.init d (fun k ->
        Dml.Delta.Insert_entity
          { set = "Persons";
            entity =
              Edm.Instance.entity ~etype:"Customer"
                [ ("Id", Value.Int (fresh_id k)); ("Name", Value.String "new");
                  ("CredScore", Value.Int 9); ("BillAddr", Value.String "9 Elm St") ] })
  in
  let delete_delta d =
    List.init d (fun k ->
        Dml.Delta.Delete_entity
          { set = "Persons"; key = Row.of_list [ ("Id", Value.Int (fresh_id k)) ] })
  in
  let sizes = [ 50; 100; 200; 400; 800 ] in
  let deltas = [ 1; 8 ] in
  Printf.printf "model: paper stage 4; delta: insert d Customers (paired with its inverse)\n\n%!";
  Printf.printf "%9s %6s %14s %14s %10s\n%!" "instance" "delta" "ivm-step" "full-diff" "full/ivm";
  let results =
    List.concat_map
      (fun n ->
        let inst = paper_instance n in
        let inc0 = ok (Dml.Translate.ivm_init env uv inst) in
        List.map
          (fun d ->
            let ins = insert_delta d and del = delete_delta d in
            let h = ref inc0 in
            let ivm_ns =
              measure_ns (Printf.sprintf "ivm-%d-%d" n d) (fun () ->
                  let _, h1 = ok (Dml.Translate.ivm_step !h ins) in
                  let _, h2 = ok (Dml.Translate.ivm_step h1 del) in
                  h := h2)
              /. 2.
            in
            let full_ns =
              measure_ns (Printf.sprintf "full-%d-%d" n d) (fun () ->
                  ignore
                    (ok
                       (Dml.Translate.full_diff env uv ~old_client:inst ~delta:ins)))
            in
            Printf.printf "%9d %6d %14s %14s %9.1fx\n%!" n d
              (Format.asprintf "%a" pp_seconds (ivm_ns /. 1e9))
              (Format.asprintf "%a" pp_seconds (full_ns /. 1e9))
              (full_ns /. ivm_ns);
            (n, d, ivm_ns, full_ns))
          deltas)
      sizes
  in
  (* Acceptance (ISSUE 3): a 1-entity delta's IVM translate cost grows <= 2x
     while the instance grows 16x; the full diff grows super-linearly. *)
  let at n d = List.find_opt (fun (n', d', _, _) -> n' = n && d' = d) results in
  let lo = List.hd sizes and hi = List.nth sizes (List.length sizes - 1) in
  (match (at lo 1, at hi 1) with
  | Some (_, _, ivm_lo, full_lo), Some (_, _, ivm_hi, full_hi) ->
      let ivm_growth = ivm_hi /. ivm_lo and full_growth = full_hi /. full_lo in
      Printf.printf
        "\n1-entity delta, instance %dx -> %dx (16x): ivm grew %.2fx (target <= 2x: %s), \
         full diff grew %.2fx\n%!"
        lo hi ivm_growth
        (if ivm_growth <= 2.0 then "PASS" else "FAIL")
        full_growth
  | _ -> ());
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"model\": \"paper-stage4\",\n  \"rows\": [";
  List.iteri
    (fun i (n, d, ivm_ns, full_ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"instance\": %d, \"delta\": %d, \"ivm_step_ns\": %.1f, \"full_diff_ns\": %.1f }"
           n d ivm_ns full_ns))
    results;
  Buffer.add_string buf "\n  ]";
  (match (at lo 1, at hi 1) with
  | Some (_, _, ivm_lo, full_lo), Some (_, _, ivm_hi, full_hi) ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"acceptance\": { \"instance_growth\": %.1f, \"ivm_growth\": %.3f, \
            \"full_growth\": %.3f, \"pass\": %b }"
           (float_of_int hi /. float_of_int lo)
           (ivm_hi /. ivm_lo) (full_hi /. full_lo)
           (ivm_hi /. ivm_lo <= 2.0))
  | _ -> ());
  Buffer.add_string buf "\n}\n";
  write_bench_json ~path:"BENCH_ivm.json" ~label:"scaling sweep" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Physical execution: lib/exec plans vs Query.Eval.rows (E10).        *)
(* ------------------------------------------------------------------ *)

let exec_bench () =
  header "Exec -- physical plans (hash joins, indexed scans) vs naive evaluation";
  let ok = function Ok x -> x | Error e -> failwith e in
  let st = paper_pipeline () in
  let env = st.Core.State.env in
  let module A = Query.Algebra in
  let point_id n = (max 1 (n / 3)) + 1 (* an Employee id with a Supports link *) in
  let shapes n =
    [
      ( "point",
        A.Select
          (Query.Cond.Cmp ("Employee.Id", Query.Cond.Eq, Datum.Value.Int (point_id n)),
           A.Scan (A.Assoc_set "Supports")) );
      ( "join",
        A.Join
          ( A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
              (A.Scan (A.Entity_set "Persons")),
            A.Scan (A.Assoc_set "Supports"),
            [ "Employee.Id" ] ) );
      ( "union",
        A.project_cols [ "Id"; "Name"; "CredScore" ]
          (A.Select (Query.Cond.Is_of "Customer", A.Scan (A.Entity_set "Persons"))) );
    ]
  in
  let sizes = [ 200; 800; 3200 ] in
  Printf.printf "model: paper stage 4; shapes: assoc point lookup, 2-way join, IS OF flattening\n\n%!";
  Printf.printf "%9s %-6s %12s %12s %12s %10s %10s\n%!" "instance" "shape" "naive" "exec j=1"
    "exec j=4" "naive/j1" "idx scans";
  let results =
    List.concat_map
      (fun n ->
        let inst = paper_instance n in
        let store = ok (Query.View.apply_update_views env st.Core.State.update_views inst) in
        let db = Query.Eval.store_db store in
        List.map
          (fun (shape, q) ->
            let unfolded = ok (Query.Unfold.client_query env st.Core.State.query_views q) in
            let plan = ok (Exec.Planner.plan env unfolded) in
            let idb = Exec.Idb.make env db in
            (* one warm run builds row arrays and indexes, and cross-checks *)
            let exec_rows = Exec.Run.rows idb plan in
            let naive_rows, naive_dt = wall (fun () -> Query.Eval.rows env db unfolded) in
            let sorted = List.sort Datum.Row.compare in
            if not (List.equal Datum.Row.equal (sorted naive_rows) (sorted exec_rows)) then
              failwith (Printf.sprintf "exec/%s disagrees with Eval.rows at n=%d" shape n);
            let j1_ns =
              measure_ns (Printf.sprintf "exec1-%s-%d" shape n) (fun () ->
                  ignore (Exec.Run.rows idb plan))
            in
            let j4_ns =
              measure_ns (Printf.sprintf "exec4-%s-%d" shape n) (fun () ->
                  ignore (Exec.Run.rows ~jobs:4 ~par_threshold:256 idb plan))
            in
            let naive_ns = naive_dt *. 1e9 in
            Printf.printf "%9d %-6s %12s %12s %12s %9.1fx %10d\n%!" n shape
              (Format.asprintf "%a" pp_seconds naive_dt)
              (Format.asprintf "%a" pp_seconds (j1_ns /. 1e9))
              (Format.asprintf "%a" pp_seconds (j4_ns /. 1e9))
              (naive_ns /. j1_ns) (Exec.Plan.index_scans plan);
            (n, shape, naive_ns, j1_ns, j4_ns))
          (shapes n))
      sizes
  in
  (* Acceptance (ISSUE 4): the physical engine beats Eval.rows by >= 5x on
     the 2-way join at the largest instance size. *)
  let hi = List.nth sizes (List.length sizes - 1) in
  let accept =
    List.find_opt (fun (n, shape, _, _, _) -> n = hi && shape = "join") results
  in
  (match accept with
  | Some (_, _, naive_ns, j1_ns, _) ->
      Printf.printf "\n2-way join at n=%d: naive/exec = %.1fx (target >= 5x: %s)\n%!" hi
        (naive_ns /. j1_ns)
        (if naive_ns /. j1_ns >= 5.0 then "PASS" else "FAIL")
  | None -> ());
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"model\": \"paper-stage4\",\n  \"rows\": [";
  List.iteri
    (fun i (n, shape, naive_ns, j1_ns, j4_ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"instance\": %d, \"shape\": %S, \"naive_ns\": %.1f, \"exec_jobs1_ns\": \
            %.1f, \"exec_jobs4_ns\": %.1f }"
           n shape naive_ns j1_ns j4_ns))
    results;
  Buffer.add_string buf "\n  ]";
  (match accept with
  | Some (_, _, naive_ns, j1_ns, _) ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  \"acceptance\": { \"join_instance\": %d, \"naive_over_exec1\": %.2f, \
            \"pass\": %b }"
           hi (naive_ns /. j1_ns)
           (naive_ns /. j1_ns >= 5.0))
  | None -> ());
  Buffer.add_string buf "\n}\n";
  write_bench_json ~path:"BENCH_exec.json" ~label:"execution sweep" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* E11: static lint vs obligation-based validation.                    *)
(* ------------------------------------------------------------------ *)

let lint_bench () =
  header "Lint -- static analysis wall-time vs obligation-based validation (E11)";
  let ok = function Ok x -> x | Error e -> failwith e in
  let models =
    [
      ( "paper",
        fun () ->
          let s = Workload.Paper_example.stage4 in
          (s.Workload.Paper_example.env, s.Workload.Paper_example.fragments) );
      ("chain-100", fun () -> Workload.Chain.generate ~size:100);
      ("hub-rim", fun () -> Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tph);
      ("hub-rim-tpt", fun () -> Workload.Hub_rim.generate ~n:2 ~m:3 ~style:`Tpt);
      ("customer", fun () -> Workload.Customer.generate ());
    ]
  in
  Printf.printf "%-12s %12s %12s %10s %7s\n%!" "model" "lint" "validate" "val/lint" "diags";
  let rows =
    List.map
      (fun (name, gen) ->
        let env, frags = gen () in
        let c = ok (Fullc.Compile.compile ~validate:false env frags) in
        let views = (c.Fullc.Compile.query_views, c.Fullc.Compile.update_views) in
        let diags, lint_dt = wall (fun () -> Lint.Analyze.run ~views env frags) in
        let _, val_dt =
          wall (fun () -> ok (Fullc.Validate.run env frags c.Fullc.Compile.update_views))
        in
        Printf.printf "%-12s %12s %12s %9.1fx %7d\n%!" name
          (Format.asprintf "%a" pp_seconds lint_dt)
          (Format.asprintf "%a" pp_seconds val_dt)
          (val_dt /. lint_dt) (List.length diags);
        (name, lint_dt, val_dt, List.length diags))
      models
  in
  (* Acceptance (ISSUE 6): linting the seed model suite is >= 50x faster
     than the obligation-based validation it screens for. *)
  let total_lint = List.fold_left (fun a (_, l, _, _) -> a +. l) 0. rows in
  let total_val = List.fold_left (fun a (_, _, v, _) -> a +. v) 0. rows in
  let speedup = total_val /. total_lint in
  Printf.printf "\nsuite: lint %.1f ms, validate %.1f ms -> %.1fx (target >= 50x: %s)\n%!"
    (total_lint *. 1e3) (total_val *. 1e3) speedup
    (if speedup >= 50. then "PASS" else "FAIL");
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"rows\": [";
  List.iteri
    (fun i (name, lint_dt, val_dt, diags) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"model\": %S, \"lint_ms\": %.3f, \"validate_ms\": %.3f, \"speedup\": \
            %.1f, \"diags\": %d }"
           name (lint_dt *. 1e3) (val_dt *. 1e3) (val_dt /. lint_dt) diags))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"suite\": { \"lint_ms\": %.3f, \"validate_ms\": %.3f, \"speedup\": %.1f, \
        \"pass\": %b }\n}\n"
       (total_lint *. 1e3) (total_val *. 1e3) speedup (speedup >= 50.));
  write_bench_json ~path:"BENCH_lint.json" ~label:"lint sweep" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let chain_size =
    let rec find = function
      | "--chain-size" :: n :: _ -> int_of_string n
      | _ :: rest -> find rest
      | [] -> 1002
    in
    find args
  in
  let modes =
    List.filter
      (fun a ->
        List.mem a
          [ "fig2"; "fig4"; "fig9"; "fig10"; "ablation"; "par"; "obs"; "ivm"; "exec"; "lint" ])
      args
  in
  let modes =
    if modes = [] then
      [ "fig2"; "fig4"; "fig9"; "fig10"; "ablation"; "par"; "obs"; "ivm"; "exec"; "lint" ]
    else modes
  in
  List.iter
    (function
      | "fig2" -> fig2 ()
      | "fig4" -> fig4 ()
      | "fig9" -> fig9 ~chain_size ()
      | "fig10" -> fig10 ()
      | "ablation" -> ablation ()
      | "par" -> par ()
      | "obs" -> obs_report ~chain_size ()
      | "ivm" -> ivm ()
      | "exec" -> exec_bench ()
      | "lint" -> lint_bench ()
      | _ -> ())
    modes
