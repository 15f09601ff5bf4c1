(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4.2).

     fig2  — the compiled query view of the running example (Fig. 2)
     fig4  — full-compilation time of the hub-and-rim model (Fig. 4)
     fig9  — SMO timings on the 1002-type chain model (Fig. 9)
     fig10 — SMO timings on the customer-like model (Fig. 10)
     ablation — design-choice measurements called out in DESIGN.md
     par   — one large obligation batch, discharged on the calling domain
     obs   — per-phase span breakdown via lib/obs
     lint  — static lint vs full validation (E11)
     ivm   — update-translation scaling, IVM vs full diff, and the cost of
             materializing a customer instance
     exec  — physical execution vs naive evaluation
     edit  — the persisted Fig. 7 loop on the customer model, layer by
             layer (load, each suite SMO, linting the mapping and the views,
             save), and whole, one op per suite SMO

   Each of fig9, fig10, par, obs, lint, ivm, exec and edit prints its tables
   and writes them to BENCH_<mode>.json ([emit]), in one schema:

     { "command": "dune exec bench/main.exe -- <mode>",
       "git_rev": <git describe --always --dirty, or "unknown">,
       "profile": <the dune profile the harness was built in, e.g. "dev">,
       "cores": <Domain.recommended_domain_count ()>,
       "tables": { <name>: { "keys": [..], "counts": [..], "rows": [{..}, ..] } } }

   A row is one object; [keys] name the columns that identify it, [counts]
   the columns whose values do not depend on the host ([count_columns]).
   [python3 bench/check.py OLD NEW] matches the rows of two such files by
   their keys and exits 1 if a count differs or a row is missing or added;
   it compares no timing, and ignores a top-level "parent" document.

   Every timing of every mode is a median of [sample], the one timer; obs's
   phase times are the spans' own.

   `dune exec bench/main.exe` runs everything; pass a subset of the mode
   names to restrict, and `--chain-size N` to scale the Fig. 9 model. *)

(* Megabytes the calling domain has allocated so far.  Promoted words count
   once as minor and once as major allocation, so they are subtracted.
   [Gc.minor_words] includes the live part of the minor heap, so unlike
   [Gc.allocated_bytes] the figure does not depend on when the minor heap
   was last emptied. *)
let allocated_mb () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. 8. /. 1e6

(* The harness's one timer: every timed cell of every mode goes through it,
   and no other code here reads the clock or collects the heap.  [sample f]
   returns the result of a first call of [f], then the median milliseconds
   and megabytes ([allocated_mb]) per call over at least 7 samples taken
   across at least half a second.  A sample is one batch of calls on a
   collected heap; the batch doubles from one call until it takes at least
   1 ms, so the clock's resolution does not show in fast cells.  A first
   call slower than the half second is the only sample, so a slow cell
   costs one run. *)
let sample f =
  let batch n g =
    Gc.full_major ();
    let a0 = allocated_mb () and t0 = Unix.gettimeofday () in
    let r = g () in
    let dt = Unix.gettimeofday () -. t0 in
    (r, (dt *. 1e3 /. float_of_int n, (allocated_mb () -. a0) /. float_of_int n))
  in
  let start = Unix.gettimeofday () in
  let r, first = batch 1 f in
  let rec loop n acc =
    let (), ((ms, _) as s) =
      batch n (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done)
    in
    if acc = [] && ms *. float_of_int n < 1. then loop (2 * n) []
    else
      let acc = s :: acc in
      if List.length acc >= 7 && Unix.gettimeofday () -. start >= 0.5 then acc else loop n acc
  in
  let samples = if fst first > 500. then [ first ] else loop 1 [] in
  let median g =
    let l = List.sort Float.compare (List.map g samples) in
    List.nth l (List.length l / 2)
  in
  (r, median fst, median snd)

(* A duration for the text-only modes, [ms] milliseconds. *)
let show_ms ms =
  if ms < 1. then Printf.sprintf "%8.1fus" (ms *. 1e3)
  else if ms < 1e3 then Printf.sprintf "%8.2fms" ms
  else Printf.sprintf "%8.2fs " (ms /. 1e3)

let header title = Printf.printf "\n=== %s ===\n%!" title

(* The sum of the integer attribute [tag] over the completed spans named
   [name]. *)
let span_tag_total ~name tag =
  Obs.Span.fold_all
    (fun acc sp ->
      match List.assoc_opt tag (Obs.Span.attrs sp) with
      | Some t when Obs.Span.name sp = name -> acc + int_of_string t
      | _ -> acc)
    0

(* ------------------------------------------------------------------ *)
(* Tables: every mode's results, printed and written by [emit].        *)
(* ------------------------------------------------------------------ *)

(* A JSON string, or a JSON literal (a number, a boolean or null). *)
type cell = Str of string | Lit of string

let str s = Str s
let int n = Lit (string_of_int n)
let num digits x = Lit (if Float.is_finite x then Printf.sprintf "%.*f" digits x else "null")
let bool b = Lit (string_of_bool b)

(* Every row of a table has the same columns, in the same order. *)
type table = { name : string; keys : string list; rows : (string * cell) list list }

(* The columns whose values do not depend on the host. *)
let count_columns =
  [ "obligations"; "cases"; "cq_pairs"; "hom_steps"; "solves"; "atom_args"; "fragments_visited";
    "views_visited"; "tables_visited"; "scans";
    "index_scans"; "rows_scanned"; "rows_joined"; "diags"; "state_bytes"; "terms"; "steps"; "verdict"; "tree_nodes";
    "distinct_nodes"; "atoms"; "rows_scan"; "rows_select"; "rows_project"; "rows_join"; "rows_union";
    "rows_distinct"; "rows_touched"; "rows_growth"; "plan_nodes"; "after_step_index_builds" ]

let json_string s =
  let esc = function
    | '"' -> "\\\""
    | '\\' -> "\\\\"
    | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  "\"" ^ String.concat "" (List.map esc (List.of_seq (String.to_seq s))) ^ "\""

let json_cell = function Str s -> json_string s | Lit l -> l

let print_table t =
  match t.rows with
  | [] -> ()
  | first :: _ ->
      let text = function Str s | Lit s -> s in
      let width c =
        List.fold_left
          (fun w r -> max w (String.length (text (List.assoc c r))))
          (String.length c) t.rows
      in
      (* Strings are left-aligned, numbers right-aligned. *)
      let cols =
        List.map (fun (c, v) -> (c, width c, match v with Str _ -> true | Lit _ -> false)) first
      in
      let last = List.length cols - 1 in
      let line cell =
        String.concat "  "
          (List.mapi
             (fun i (c, w, left) ->
               let s = cell c in
               let fill = String.make (w - String.length s) ' ' in
               if not left then fill ^ s else if i = last then s else s ^ fill)
             cols)
      in
      Printf.printf "\n-- %s --\n%s\n" t.name (line Fun.id);
      List.iter (fun r -> Printf.printf "%s\n%!" (line (fun c -> text (List.assoc c r)))) t.rows

(* The --chain-size pair of the command line, if given. *)
let chain_size_arg =
  let rec find = function
    | "--chain-size" :: n :: _ -> [ "--chain-size"; n ]
    | _ :: rest -> find rest
    | [] -> []
  in
  find (Array.to_list Sys.argv)

let git_rev () =
  let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with Unix.WEXITED 0, Some rev -> rev | _ -> "unknown"

(* Print [tables] and write them to BENCH_<mode>.json, one row a line. *)
let emit mode tables =
  List.iter print_table tables;
  let list f l sep = String.concat sep (List.map f l) in
  let field (c, v) = json_string c ^ ": " ^ json_cell v in
  let table t =
    let cols = match t.rows with r :: _ -> List.map fst r | [] -> [] in
    Printf.sprintf
      "    %s: {\n      \"keys\": [%s],\n      \"counts\": [%s],\n      \"rows\": [\n%s\n      ]\n    }"
      (json_string t.name) (list json_string t.keys ", ")
      (list json_string (List.filter (fun c -> List.mem c count_columns) cols) ", ")
      (list (fun r -> "        { " ^ list field r ", " ^ " }") t.rows ",\n")
  in
  let path = Printf.sprintf "BENCH_%s.json" mode in
  (* Read the revision before opening the file: truncating it makes the
     tree dirty. *)
  let rev = git_rev () in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\n  \"command\": %s,\n  \"git_rev\": %s,\n  \"profile\": %s,\n  \"cores\": %d,\n\
         \  \"tables\": {\n%s\n  }\n}\n"
        (json_string (String.concat " " ("dune exec bench/main.exe --" :: mode :: chain_size_arg)))
        (json_string rev) (json_string Build_profile.name) (Domain.recommended_domain_count ())
        (list table tables ",\n"));
  Printf.printf "\n%s written\n%!" path

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
  let st = ok (Fullc.Compile.compile P.stage1.P.env P.stage1.P.fragments) in
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
  | Some q -> Format.printf "@.-- Supports association view@.%a@." Query.Pretty.query q
  | None -> print_endline "missing Supports view!"

(* ------------------------------------------------------------------ *)
(* Fig. 4: full compilation of the hub-and-rim model.                  *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Fig. 4 -- full-compilation time of the hub-and-rim model (TPH into one table)";
  Printf.printf "%3s %3s %6s %6s  %-20s %-12s\n%!" "N" "M" "types" "atoms" "TPH" "TPT";
  let budget_ms = 30e3 in
  let atom_budget = 24 in
  List.iter
    (fun n ->
      let over_budget = ref false in
      List.iter
        (fun m ->
          let types = Workload.Hub_rim.type_count ~n ~m in
          let atoms = Workload.Hub_rim.atom_count ~n ~m in
          let time style =
            let env, frags = Workload.Hub_rim.generate ~n ~m ~style in
            let r, ms, _ = sample (fun () -> Fullc.Compile.compile env frags) in
            (ms, match r with Ok _ -> show_ms ms | Error e -> "error: " ^ e)
          in
          let tpt_time = snd (time `Tpt) in
          let tph_time =
            if !over_budget || atoms > atom_budget then
              Printf.sprintf "cutoff (2^%d cells)" atoms
            else
              let ms, shown = time `Tph in
              if ms > budget_ms then over_budget := true;
              shown
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

(* The spans of one traced run of [run], one row per span path: the [col]
   column names the run, and [count], [total_ms], [self_ms] and [alloc_mb]
   (what the path's spans allocated, children included) roll up the path's
   spans.  The rows of a [phases] table, keyed by [col] and [phase]. *)
let phase_rows col name run =
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable run;
  let rows =
    List.map
      (fun (phase, a) ->
        [ (col, str name); ("phase", str phase); ("count", int a.Obs.Export.count);
          ("total_ms", num 3 (a.Obs.Export.total_s *. 1e3));
          ("self_ms", num 3 (a.Obs.Export.self_s *. 1e3));
          ("alloc_mb", num 3 a.Obs.Export.alloc_mb) ])
      (Obs.Export.aggregate ())
  in
  Obs.Span.reset ();
  rows

(* The containment checker's work in [f ()]: the deltas of its case,
   CQ-pair, homomorphism-step and solve counters, as count cells. *)
let checker_work f =
  let counters =
    Containment.Check.[ ("cases", cases); ("cq_pairs", cq_pairs); ("hom_steps", hom_steps) ]
    @ [ ("solves", Containment.Nf.solves) ]
  in
  let before = List.map (fun (_, c) -> Obs.Metric.value c) counters in
  let r = f () in
  (r, List.map2 (fun (name, c) b -> (name, int (Obs.Metric.value c - b))) counters before)

(* Work counts of one traced run of [f ()], summed over its spans: the
   atom arguments of the UCQs the checker normalizes (the [lhs_args] and
   [rhs_args] tags of its [containment.normalize] spans), the fragments
   the SMOs' fragment edits visit ([fragments_visited]) and the update
   views the adapters visit ([views_visited]). *)
let traced_counts f =
  Obs.Span.reset ();
  Obs.enable ();
  let r = Fun.protect ~finally:Obs.disable f in
  let sum tags =
    Obs.Span.fold_all
      (fun n s ->
        List.fold_left
          (fun n (k, v) -> if List.mem k tags then n + int_of_string v else n)
          n (Obs.Span.attrs s))
      0
  in
  let counts =
    [ ("atom_args", int (sum [ "lhs_args"; "rhs_args" ]));
      ("fragments_visited", int (sum [ "fragments_visited" ]));
      ("views_visited", int (sum [ "views_visited" ])) ]
  in
  Obs.Span.reset ();
  (r, counts)

(* Per-SMO costs on one state.  One untimed application gives the outcome,
   the obligations, the checker's work, the atom arguments of its UCQs and
   the fragments and update views it visits ({!traced_counts}); then the
   SMO's algorithm
   ([Core.Engine.compile]) and its obligation discharge are sampled apart.
   [ms] and [alloc_mb] are the sums of the two medians and
   [non_containment_ms] the algorithm's (so never above [ms]); [speedup] is
   over the full compile's [baseline_ms].  A row is a label, the state and
   the SMO applied to it. *)
let smo_rows ~baseline_ms rows =
  List.map
    (fun (label, st, smo) ->
      (* Inside the SMO's span, as [Core.Engine.apply] runs it, so a tag
         the SMO puts outside its phase spans is counted too. *)
      let ((compiled, proved), work), traced =
        traced_counts (fun () ->
            Obs.Span.with_ ~name:("smo:" ^ Core.Smo.name smo) @@ fun () ->
            checker_work (fun () ->
                let compiled = Core.Engine.compile st smo in
                (compiled, Result.bind compiled (fun (_, obls) -> Containment.Discharge.run obls))))
      in
      (* Validation aborts are timed too: the paper reports AE-TPC failures
         of exactly this shape (Section 4.2). *)
      let outcome =
        match proved with
        | Ok () -> "ok"
        | Error e ->
            let e = Containment.Validation_error.show e in
            "aborts: " ^ if String.length e > 60 then String.sub e 0 60 ^ "..." else e
      in
      let _, algo_ms, algo_mb = sample (fun () -> Core.Engine.compile st smo) in
      let obls, check_ms, check_mb =
        match compiled with
        | Error _ -> ([], 0., 0.)
        | Ok (_, obls) ->
            let _, ms, mb = sample (fun () -> Containment.Discharge.run obls) in
            (obls, ms, mb)
      in
      let ms = algo_ms +. check_ms in
      [ ("smo", str label); ("ms", num 3 ms); ("speedup", num 0 (baseline_ms /. ms));
        ("non_containment_ms", num 3 algo_ms); ("alloc_mb", num 2 (algo_mb +. check_mb));
        ("obligations", int (List.length obls)) ]
      @ work
      @ traced @ [ ("outcome", str outcome) ])
    rows

(* The full compile of [env, frags], the costs of [suite] on its state,
   and the span aggregate of one traced validated application of each SMO
   (a refused one included).  A sequel [(label, before, smo)] is one more
   row: [smo] applied to the state the SMOs [before] leave. *)
let smo_tables ?(sequels = []) env frags suite =
  match sample (fun () -> Fullc.Compile.compile env frags) with
  | Error e, _, _ -> failwith ("full compilation failed: " ^ e)
  | Ok st, full_ms, _ ->
      let after label before =
        match Core.Engine.apply_all st before with
        | Ok st -> st
        | Error e -> failwith (label ^ ": " ^ Containment.Validation_error.show e)
      in
      let rows =
        List.map (fun (label, smo) -> (label, st, smo)) suite
        @ List.map (fun (label, before, smo) -> (label, after label before, smo)) sequels
      in
      let phases =
        List.concat_map
          (fun (label, st, smo) ->
            phase_rows "smo" label (fun () -> ignore (Core.Engine.apply st smo)))
          rows
      in
      [ { name = "full_compile"; keys = []; rows = [ [ ("full_compile_s", num 3 (full_ms /. 1e3)) ] ] };
        { name = "smos"; keys = [ "smo" ]; rows = smo_rows ~baseline_ms:full_ms rows };
        { name = "phases"; keys = [ "smo"; "phase" ]; rows = phases } ]

(* The chain suite at each of [sizes] (at the middle of the chain): per
   size and SMO, the fragments and update views one traced application
   visits, which must not grow with the model, and the sampled algorithm's
   [non_containment_ms] and [alloc_mb]. *)
let scale_table sizes =
  let rows =
    List.concat_map
      (fun size ->
        let env, frags = Workload.Chain.generate ~size in
        match Fullc.Compile.compile ~validate:false env frags with
        | Error e -> failwith ("chain compilation failed: " ^ e)
        | Ok st ->
            List.map
              (fun (label, smo) ->
                let _, traced = traced_counts (fun () -> Core.Engine.compile st smo) in
                let _, ms, mb = sample (fun () -> Core.Engine.compile st smo) in
                [ ("size", int size); ("smo", str label) ]
                @ List.filter (fun (k, _) -> k <> "atom_args") traced
                @ [ ("non_containment_ms", num 3 ms); ("alloc_mb", num 3 mb) ])
              (Workload.Chain.smo_suite ~at:(size / 2)))
      sizes
  in
  { name = "scale"; keys = [ "size"; "smo" ]; rows }

let fig9 ~chain_size () =
  header
    (Printf.sprintf
       "Fig. 9 -- SMO timings on the %d-type chain model (the paper's EF baseline: 15 minutes)"
       chain_size);
  let env, frags = Workload.Chain.generate ~size:chain_size in
  let sizes = List.sort_uniq compare [ 125; 250; 500; chain_size ] in
  emit "fig9"
    (smo_tables env frags (Workload.Chain.smo_suite ~at:(chain_size / 2)) @ [ scale_table sizes ])

let fig10 () =
  header "Fig. 10 -- SMO timings on the customer-like model (the paper's EF baseline: 8 hours)";
  Printf.printf "model: %s\n%!" (Workload.Customer.stats ());
  let env, frags = Workload.Customer.generate () in
  (* AEP-2p+ applies AEP-2p after AEP-1p, where Bucket is a namesake. *)
  let suite = Workload.Customer.smo_suite () in
  emit "fig10"
    (smo_tables
       ~sequels:
         (Workload.Customer.drop_suite ()
         @ [ ("AEP-2p+", [ List.assoc "AEP-1p" suite ], List.assoc "AEP-2p" suite) ])
       env frags suite)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5).                                    *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation -- incremental validation scope vs. full revalidation";
  let env, frags = Workload.Chain.generate ~size:200 in
  (match Fullc.Compile.compile env frags with
  | Error e -> Printf.printf "chain compile failed: %s\n" e
  | Ok st -> (
      match List.assoc_opt "AE-TPT" (Workload.Chain.smo_suite ~at:100) with
      | None -> ()
      | Some smo -> (
          match Core.Engine.apply st smo with
          | Error e -> Printf.printf "AE-TPT failed: %s\n" (Containment.Validation_error.show e)
          | Ok st' ->
              let _, inc_ms, _ = sample (fun () -> Core.Engine.apply st smo) in
              let _, full_ms, _ =
                sample (fun () -> Fullc.Validate.run st'.Core.State.env st'.Core.State.fragments)
              in
              Printf.printf
                "AE-TPT on chain-200: neighborhood checks %s; full revalidation of the evolved \
                 mapping %s (%.0fx)\n%!"
                (show_ms inc_ms) (show_ms full_ms) (full_ms /. inc_ms))));
  header "Ablation -- direct LOJ/UNION route vs. generic FOJ route (Section 6)";
  let st = paper_pipeline () in
  let env = st.Core.State.env in
  (match Fullc.Compile.compile ~validate:false env st.Core.State.fragments with
  | Error e -> Printf.printf "full view generation failed: %s\n" e
  | Ok full ->
      let _, gen_ms, _ =
        sample (fun () -> Fullc.Compile.compile ~validate:false env st.Core.State.fragments)
      in
      Printf.printf "generic FOJ view generation (paper example): %s\n%!" (show_ms gen_ms);
      let agree = ref true in
      for seed = 0 to 19 do
        let inst = Roundtrip.Generate.instance ~seed env.Query.Env.client in
        match
          ( Query.View.apply_update_views env st.Core.State.update_views inst,
            Query.View.apply_update_views env full.Core.State.update_views inst )
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
        let f', l', u' = Mapping.Views.stats (v : Query.View.t).Query.View.query in
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
          let fp, lp, up = shape_of (Query.View.entity_view_bindings plain.Core.State.query_views) in
          let fo, lo, uo = shape_of (Query.View.entity_view_bindings opt.Core.State.query_views) in
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
  header "Ablation -- containment-checker work per SMO (chain-200)";
  let env, frags = Workload.Chain.generate ~size:200 in
  match Fullc.Compile.compile env frags with
  | Error e -> Printf.printf "chain compile failed: %s\n" e
  | Ok st ->
      List.iter
        (fun (label, smo) ->
          match Core.Engine.apply_timed st smo with
          | Ok (_, t) ->
              let _, ms, _ = sample (fun () -> Core.Engine.apply st smo) in
              Format.printf "%-10s %s   %a@." label (show_ms ms) Obs.Metric.pp
                t.Core.Engine.containment
          | Error _ -> Printf.printf "%-10s (aborts)\n%!" label)
        (Workload.Chain.smo_suite ~at:100)

(* ------------------------------------------------------------------ *)
(* Obligation discharge: one big batch, proven on the calling domain.  *)
(* ------------------------------------------------------------------ *)

let par () =
  header "Obligation discharge -- one batch of random-model FK obligations";
  (* Each model's obligations are distinct from every other model's, so the
     batch times proofs, not repeat removal; 320 models make one call about
     ten milliseconds. *)
  let models = 320 in
  let obls =
    List.concat_map
      (fun seed ->
        let env, frags = Workload.Random_model.generate ~seed () in
        match Fullc.Validate.fk_obligations env frags with Ok obls -> obls | Error _ -> [])
      (List.init models Fun.id)
  in
  let r, ms, _ = sample (fun () -> Containment.Discharge.run obls) in
  let verdict =
    match r with Ok () -> "ok" | Error e -> "fail: " ^ Containment.Validation_error.show e
  in
  emit "par"
    [ { name = "batch"; keys = [];
        rows = [ [ ("models", int models); ("obligations", int (List.length obls)) ] ] };
      { name = "discharge"; keys = [];
        rows = [ [ ("seconds", num 6 (ms /. 1e3)); ("verdict", str verdict) ] ] };
      { name = "phases"; keys = [ "row"; "phase" ];
        rows = phase_rows "row" "batch" (fun () -> ignore (Containment.Discharge.run obls)) } ]

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
        | Ok st ->
            List.iter
              (fun (_, smo) -> ignore (Core.Engine.apply st smo))
              (Workload.Chain.smo_suite ~at:(size / 2)) );
    ( "customer-smo-suite",
      fun () ->
        let env, frags = Workload.Customer.generate () in
        match Fullc.Compile.compile env frags with
        | Error _ -> ()
        | Ok st ->
            List.iter
              (fun (_, smo) -> ignore (Core.Engine.apply st smo))
              (Workload.Customer.smo_suite ()) );
  ]

let obs_report ~chain_size () =
  header "Observability -- per-phase span breakdown (lib/obs)";
  let rows =
    List.concat_map (fun (name, run) -> phase_rows "workload" name run) (obs_workloads ~chain_size)
  in
  emit "obs" [ { name = "phases"; keys = [ "workload"; "phase" ]; rows } ]

(* ------------------------------------------------------------------ *)
(* IVM: update-translation cost, O(delta) vs O(instance) (E9).         *)
(* ------------------------------------------------------------------ *)

(* Single-op transactions on e2ebench serve's customer instance (seed 2013,
   300 entities per set), one row per kind.  Each kind is a cycle of
   deltas: for insert, update and delete one per entity set, for link one
   per association, each valid on the materialized handle [inc] and drawn
   from a seeded generator.  Every step starts from [inc] (the handle is
   immutable), so a step can be repeated as often as [sample] likes, each
   call taking the cycle's next delta.  Per step: the sampled ns and
   megabytes, and the table plans visited (the [tables] attribute of the
   [ivm.propagate] span) as the mean over the cycle.  Per cycle: the rows
   each IVM operator emitted ([ivm.rows.*], summed over its steps), and
   the [phase_rows] of one traced run of it. *)
(* The rows each IVM operator emitted since the last [Obs.reset], one
   [rows_*] column per [ivm.rows.*] counter. *)
let operator_counts () =
  List.map
    (fun op -> ("rows_" ^ op, Obs.Metric.value (Obs.Metric.counter ("ivm.rows." ^ op))))
    [ "scan"; "select"; "project"; "join"; "union"; "distinct" ]

let operator_rows () = List.map (fun (c, n) -> (c, int n)) (operator_counts ())

let customer_steps env inc inst =
  let ok = function Ok x -> x | Error e -> failwith e in
  let schema = env.Query.Env.client in
  let rng = Random.State.make [| 2013 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let sets = Edm.Schema.entity_sets schema in
  let key_of set =
    Edm.Schema.key_of schema (Option.get (Edm.Schema.set_root schema set))
  in
  (* Every value any link holds: a delete takes an entity whose key value
     is none of them, so it leaves no link dangling. *)
  let linked =
    List.concat_map
      (fun (a : Edm.Association.t) ->
        List.concat_map
          (fun l -> List.map snd (Datum.Row.to_list l))
          (Edm.Instance.links inst ~assoc:a.Edm.Association.name))
      (Edm.Schema.associations schema)
  in
  let key_value set (e : Edm.Instance.entity) =
    Datum.Row.project (key_of set) e.Edm.Instance.attrs
  in
  let inserts =
    List.mapi
      (fun i (set, root) ->
        let etype = pick (Edm.Schema.subtypes schema root) in
        let key = key_of set in
        let attrs =
          List.map
            (fun (a, dom) ->
              if List.mem a key then (a, Datum.Value.Int (1_000_000 + i))
              else (a, Roundtrip.Generate.value_for rng dom))
            (Edm.Schema.attributes schema etype)
        in
        Dml.Delta.Insert_entity { set; entity = Edm.Instance.entity ~etype attrs })
      sets
  in
  let updates =
    List.filter_map
      (fun (set, _) ->
        let e = pick (Edm.Instance.entities inst ~set) in
        let key = key_of set in
        match
          List.filter (fun (a, _) -> not (List.mem a key)) (Edm.Schema.attributes schema e.Edm.Instance.etype)
        with
        | [] -> None
        | attrs ->
            let a, dom = pick attrs in
            Some
              (Dml.Delta.Update_entity
                 { set; key = key_value set e; changes = [ (a, Roundtrip.Generate.value_for rng dom) ] }))
      sets
  in
  let deletes =
    List.filter_map
      (fun (set, _) ->
        match
          List.filter
            (fun e ->
              not (List.exists (fun (_, v) -> List.mem v linked) (Datum.Row.to_list (key_value set e))))
            (Edm.Instance.entities inst ~set)
        with
        | [] -> None
        | es -> Some (Dml.Delta.Delete_entity { set; key = key_value set (pick es) }))
      sets
  in
  let links =
    List.filter_map
      (fun (a : Edm.Association.t) ->
        let name = a.Edm.Association.name in
        let existing = Edm.Instance.links inst ~assoc:name in
        let used col = List.map (Datum.Row.get col) existing in
        let side bounded ety =
          let set = Option.get (Edm.Schema.set_of_type schema ety) in
          let cols = List.map (fun k -> (k, Edm.Association.qualify ~etype:ety k)) (Edm.Schema.key_of schema ety) in
          let used = List.concat_map (fun (_, q) -> used q) cols in
          List.filter_map
            (fun (e : Edm.Instance.entity) ->
              if not (Edm.Schema.is_subtype schema ~sub:e.Edm.Instance.etype ~sup:ety) then None
              else
                let end_row = List.map (fun (k, q) -> (q, Datum.Row.get k e.Edm.Instance.attrs)) cols in
                if bounded && List.exists (fun (_, v) -> List.mem v used) end_row then None
                else Some end_row)
            (Edm.Instance.entities inst ~set)
        in
        match
          ( side (a.Edm.Association.mult2 <> Edm.Association.Many) a.Edm.Association.end1,
            side (a.Edm.Association.mult1 <> Edm.Association.Many) a.Edm.Association.end2 )
        with
        | [], _ | _, [] -> None
        | ends1, ends2 ->
            let link = Datum.Row.of_list (pick ends1 @ pick ends2) in
            if List.exists (Datum.Row.equal link) existing then None
            else Some (Dml.Delta.Insert_link { assoc = name; link }))
      (Edm.Schema.associations schema)
  in
  List.map
    (fun (kind, deltas) ->
      let deltas = Array.of_list (List.map (fun op -> [ op ]) deltas) in
      let n = Array.length deltas in
      let step i = ok (Dml.Translate.ivm_step inc deltas.(i mod n)) in
      let next = ref 0 in
      let _, ms, mb =
        sample (fun () ->
            ignore (step !next);
            incr next)
      in
      Obs.reset ();
      Obs.enable ();
      for i = 0 to n - 1 do ignore (step i) done;
      Obs.disable ();
      let visited = span_tag_total ~name:"ivm.propagate" "tables" in
      let rows = operator_rows () in
      Obs.reset ();
      let phases = phase_rows "row" kind (fun () -> for i = 0 to n - 1 do ignore (step i) done) in
      ( [ ("kind", str kind); ("steps", int n); ("ivm_step_ns", num 1 (ms *. 1e6));
          ("alloc_mb", num 4 mb); ("tables_visited", num 2 (float_of_int visited /. float_of_int n)) ]
        @ rows,
        phases ))
    [ ("insert", inserts); ("update", updates); ("delete", deletes); ("link", links) ]

let ivm () =
  header "IVM -- update translation: delta propagation vs full store diff";
  let module P = Workload.Paper_example in
  let ok = function Ok x -> x | Error e -> failwith e in
  let s4 = P.stage4 in
  let env = s4.P.env and frags = s4.P.fragments in
  let uv =
    (ok (Fullc.Compile.compile ~validate:false env frags)).Core.State.update_views
  in
  let open Datum in
  (* The measured update: insert [d] fresh Customers; its inverse deletes
     them again.  Measuring the insert/delete pair on a threaded handle
     leaves the state unchanged between repetitions, so [sample] can run the
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
  Printf.printf "model: paper stage 4; delta: insert d Customers (paired with its inverse)\n%!";
  (* Per cell: the sampled ns of one translation, the full diff's, and the
     rows the IVM operators emit over one untimed insert and its inverse. *)
  let results =
    List.concat_map
      (fun n ->
        let inst = paper_instance n in
        let inc0 = ok (Dml.Translate.ivm_init env uv inst) in
        List.map
          (fun d ->
            let ins = insert_delta d and del = delete_delta d in
            let h = ref inc0 in
            let _, pair_ms, _ =
              sample (fun () ->
                  let _, h1 = ok (Dml.Translate.ivm_step !h ins) in
                  let _, h2 = ok (Dml.Translate.ivm_step h1 del) in
                  h := h2)
            in
            let _, full_ms, _ =
              sample (fun () -> ok (Dml.Translate.full_diff env uv ~old_client:inst ~delta:ins))
            in
            Obs.reset ();
            let _, h1 = ok (Dml.Translate.ivm_step inc0 ins) in
            ignore (ok (Dml.Translate.ivm_step h1 del));
            let touched = List.fold_left (fun acc (_, k) -> acc + k) 0 (operator_counts ()) in
            Obs.reset ();
            (n, d, pair_ms *. 1e6 /. 2., full_ms *. 1e6, touched))
          deltas)
      sizes
  in
  (* Acceptance: a 1-entity delta's IVM translate cost grows <= 2x while the
     instance grows 16x; the full diff grows super-linearly.  [rows_growth],
     the same ratio of rows touched, is the host-independent reading. *)
  let at n d = List.find_opt (fun (n', d', _, _, _) -> n' = n && d' = d) results in
  let lo = List.hd sizes and hi = List.nth sizes (List.length sizes - 1) in
  let acceptance =
    match (at lo 1, at hi 1) with
    | Some (_, _, ivm_lo, full_lo, rows_lo), Some (_, _, ivm_hi, full_hi, rows_hi) ->
        [ [ ("instance_growth", num 1 (float_of_int hi /. float_of_int lo));
            ("ivm_growth", num 3 (ivm_hi /. ivm_lo)); ("full_growth", num 3 (full_hi /. full_lo));
            ("rows_growth", num 3 (float_of_int rows_hi /. float_of_int rows_lo));
            ("pass", bool (ivm_hi /. ivm_lo <= 2.0)) ] ]
    | _ -> []
  in
  (* Materializing a populated customer instance, as e2ebench's serve set-up
     does: the one-off cost that the steps above amortize, and the rows each
     IVM operator emits in one untimed init; then single-op steps on it. *)
  let env, frags = Workload.Customer.generate () in
  let uv = (ok (Fullc.Compile.compile ~validate:false env frags)).Core.State.update_views in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:300 env.Query.Env.client in
  let inc, init_ms, init_mb = sample (fun () -> ok (Dml.Translate.ivm_init env uv inst)) in
  Obs.reset ();
  ignore (ok (Dml.Translate.ivm_init env uv inst));
  let init_rows = operator_rows () in
  Obs.reset ();
  let init_phases = phase_rows "row" "init" (fun () -> ignore (ok (Dml.Translate.ivm_init env uv inst))) in
  let steps = customer_steps env inc inst in
  emit "ivm"
    [ { name = "paper"; keys = [ "instance"; "delta" ];
        rows =
          List.map
            (fun (n, d, ivm_ns, full_ns, touched) ->
              [ ("instance", int n); ("delta", int d); ("ivm_step_ns", num 1 ivm_ns);
                ("full_diff_ns", num 1 full_ns); ("full_over_ivm", num 1 (full_ns /. ivm_ns));
                ("rows_touched", int touched) ])
            results };
      { name = "acceptance"; keys = []; rows = acceptance };
      { name = "init"; keys = [];
        rows =
          [ [ ("model", str "customer"); ("entities_per_set", int 300); ("ms", num 1 init_ms);
              ("alloc_mb", num 1 init_mb) ]
            @ init_rows ] };
      { name = "customer"; keys = [ "kind" ]; rows = List.map fst steps };
      { name = "phases"; keys = [ "row"; "phase" ]; rows = init_phases @ List.concat_map snd steps } ]

(* ------------------------------------------------------------------ *)
(* Physical execution: lib/exec plans vs Query.Eval.rows (E10).        *)
(* ------------------------------------------------------------------ *)

(* The customer model, compiled, and the store of the instance the
   e2ebench [serve] workload reads (seed 2013, 300 entities per set) for a
   state of it: the instance, an indexed store and a session. *)
let customer_store st =
  let ok = function Ok x -> x | Error e -> failwith e in
  let env = st.Core.State.env in
  let inst = Roundtrip.Generate.instance ~seed:2013 ~entities_per_set:300 env.Query.Env.client in
  let store = ok (Query.View.apply_update_views env st.Core.State.update_views inst) in
  let db = Query.Eval.store_db store in
  (inst, db, Exec.Idb.make env db, Core.Session.start st)

let customer_state () =
  let env, frags = Workload.Customer.generate () in
  match Fullc.Compile.compile ~validate:false env frags with Ok st -> st | Error e -> failwith e

(* One run of [plan]: its rows, whether they equal [Query.Eval.rows] on the
   unfolded query, and the [exec.rows.scanned] / [exec.rows.joined] deltas. *)
let exec_once st db idb q plan =
  let ok = function Ok x -> x | Error e -> failwith e in
  let env = st.Core.State.env in
  let scanned = Obs.Metric.counter "exec.rows.scanned" in
  let joined = Obs.Metric.counter "exec.rows.joined" in
  let s0 = Obs.Metric.value scanned and j0 = Obs.Metric.value joined in
  let rows = Exec.Run.rows idb plan in
  let rows_scanned = Obs.Metric.value scanned - s0 and rows_joined = Obs.Metric.value joined - j0 in
  let unfolded = ok (Query.Unfold.client_query env st.Core.State.query_views q) in
  let sorted = List.sort Datum.Row.compare in
  let agrees = List.equal Datum.Row.equal (sorted rows) (sorted (Query.Eval.rows env db unfolded)) in
  (rows, agrees, rows_scanned, rows_joined, unfolded)

(* The plan nodes one more planning of [q] through [session] builds rather
   than finds in its planner context ([exec.plan.nodes]): none for a shape
   the session has prepared, whose plan only takes [q]'s literals as its
   arguments. *)
let plan_nodes session q =
  let nodes = Obs.Metric.counter "exec.plan.nodes" in
  let n = Obs.Metric.value nodes in
  ignore (Core.Session.query_plan session q);
  Obs.Metric.value nodes - n

(* An IVM handle over [inst] and a thunk stepping it: each call updates a
   non-key attribute of [set]'s first entity (of type [etype], if given),
   alternating between two values, and returns the store after the step. *)
let after_step st inst set etype =
  let ok = function Ok x -> x | Error e -> failwith e in
  let env = st.Core.State.env in
  let schema = env.Query.Env.client in
  let e =
    List.find
      (fun (e : Edm.Instance.entity) ->
        match etype with Some t -> e.Edm.Instance.etype = t | None -> true)
      (Edm.Instance.entities inst ~set)
  in
  let key = Edm.Schema.key_of schema (Option.get (Edm.Schema.set_root schema set)) in
  let attr, dom =
    List.find
      (fun (a, _) -> not (List.mem a key))
      (Edm.Schema.attributes schema e.Edm.Instance.etype)
  in
  let rs = Random.State.make [| 41 |] in
  let v0 = Datum.Row.get attr e.Edm.Instance.attrs in
  let rec other () = match Roundtrip.Generate.value_for rs dom with v when v = v0 -> other () | v -> v in
  let v1 = other () in
  let update v =
    [ Dml.Delta.Update_entity
        { set; key = Datum.Row.project key e.Edm.Instance.attrs; changes = [ (attr, v) ] } ]
  in
  let inc = ref (ok (Dml.Translate.ivm_init env st.Core.State.update_views inst)) and flip = ref false in
  fun () ->
    flip := not !flip;
    let _, next = ok (Dml.Translate.ivm_step !inc (update (if !flip then v1 else v0))) in
    inc := next;
    Dml.Translate.ivm_store next

(* Key lookups on the customer model, as the e2ebench [serve] workload reads
   it: [SELECT * FROM Set WHERE Id = c] planned through a session and run
   on an indexed store of the same instance (seed 2013, 300 entities per
   set).  One TPT set (Set1, 95 tables), one TPH set (Set2, 22 scans of one
   table) and one set with a TPC type (Set4 after the suite's AE-TPC, read
   at a key of the new type).  Each read takes the next key of the set, so
   the figures cover binding a fresh literal as the argument of the
   session's prepared plan of the lookup's shape
   ([Exec.Planner.plan_read]), not one plan reused.  [cold_plan_*] plan the same fresh literals with
   [Exec.Planner.plan_in], bypassing the prepared plans, in a context over
   the same views: what a read paid for planning before plans were
   prepared.  Each set also gives the [phase_rows] of one traced read.
   [fresh_read_*] are the same reads, each on a new [Exec.Idb] over the
   same store: what a read pays after a write for the tables the write
   left alone.  [after_step_read_*] are the same reads on a new [Exec.Idb]
   over the IVM store right after one update step, [serve]'s write-then-
   read pattern: each step updates a non-key attribute of the set's first
   entity of the read type, alternating between two values, so it changes
   a table the reads probe.  They are the median of a step and a read less
   the median of a step alone.  [after_step_index_builds] is the
   [exec.index.builds] of one such read. *)
let customer_lookups st =
  let ok = function Ok x -> x | Error e -> failwith e in
  let module A = Query.Algebra in
  let st_tpc =
    match Core.Engine.apply st (List.assoc "AE-TPC" (Workload.Customer.smo_suite ())) with
    | Ok st -> st
    | Error e -> failwith (Containment.Validation_error.show e)
  in
  List.map
    (fun (set, style, st, etype) ->
      let inst, db, idb, session = customer_store st in
      let queries =
        Edm.Instance.entities inst ~set
        |> List.filter (fun (e : Edm.Instance.entity) ->
               match etype with Some t -> e.Edm.Instance.etype = t | None -> true)
        |> List.map (fun (e : Edm.Instance.entity) ->
               A.Select
                 ( Query.Cond.Cmp ("Id", Query.Cond.Eq, Datum.Row.get "Id" e.Edm.Instance.attrs),
                   A.Scan (A.Entity_set set) ))
        |> Array.of_list
      in
      let q = queries.(Array.length queries / 2) in
      let plan = ok (Core.Session.query_plan session q) in
      let env = st.Core.State.env and views = st.Core.State.query_views in
      let ctx = Exec.Planner.context env (Query.View.queries views Query.View.no_update_views) in
      let spliced = Array.map (fun q -> ok (Query.Unfold.splice env views q)) queries in
      let _, agrees, rows_scanned, _, unfolded = exec_once st db idb q plan in
      let next = ref 0 in
      let _, read_ms, read_mb =
        sample (fun () ->
            let q = queries.(!next mod Array.length queries) in
            incr next;
            Exec.Run.rows idb (ok (Core.Session.query_plan session q)))
      in
      let _, fresh_ms, fresh_mb =
        sample (fun () ->
            let q = queries.(!next mod Array.length queries) in
            incr next;
            let idb = Exec.Idb.make st.Core.State.env db in
            Exec.Run.rows idb (ok (Core.Session.query_plan session q)))
      in
      let step = after_step st inst set etype in
      let read_after_step () =
        let store = step () in
        let q = queries.(!next mod Array.length queries) in
        incr next;
        Exec.Run.rows (Exec.Idb.make st.Core.State.env (Query.Eval.store_db store))
          (ok (Core.Session.query_plan session q))
      in
      let _, step_read_ms, step_read_mb = sample read_after_step in
      let _, step_ms, step_mb = sample step in
      let builds = Obs.Metric.counter "exec.index.builds" in
      ignore (step ());
      let b0 = Obs.Metric.value builds in
      ignore (read_after_step ());
      let after_step_builds = Obs.Metric.value builds - b0 in
      let _, cold_ms, cold_mb =
        sample (fun () ->
            let q = spliced.(!next mod Array.length spliced) in
            incr next;
            Exec.Planner.plan_in ctx q)
      in
      let _, run_ms, run_mb = sample (fun () -> Exec.Run.rows idb plan) in
      if not agrees then failwith (Printf.sprintf "exec/%s key lookup disagrees with Eval.rows" set);
      let phases =
        phase_rows "row" ("key_lookup " ^ set) (fun () ->
            ignore (Exec.Run.rows idb (ok (Core.Session.query_plan session q))))
      in
      ( [ ("set", str set); ("mapping", str style); ("tables", int (List.length (A.sources unfolded)));
          ("read_ns", num 1 (read_ms *. 1e6)); ("read_alloc_mb", num 4 read_mb);
          ("fresh_read_ns", num 1 (fresh_ms *. 1e6)); ("fresh_read_alloc_mb", num 4 fresh_mb);
          ("after_step_read_ns", num 1 ((step_read_ms -. step_ms) *. 1e6));
          ("after_step_read_alloc_mb", num 4 (step_read_mb -. step_mb));
          ("after_step_index_builds", int after_step_builds);
          ("cold_plan_ns", num 1 (cold_ms *. 1e6)); ("cold_plan_alloc_mb", num 4 cold_mb);
          ("run_ns", num 1 (run_ms *. 1e6)); ("alloc_mb", num 4 run_mb);
          ("rows_scanned", int rows_scanned);
          ("scans", int (Exec.Plan.scans plan)); ("index_scans", int (Exec.Plan.index_scans plan));
          ("plan_nodes", int (plan_nodes session q)); ("agrees_with_eval", bool agrees) ],
        phases ))
    [ ("Set1", "TPT", st, None); ("Set2", "TPH", st, None); ("Set4", "TPC", st_tpc, Some "CNewTpc") ]

(* Whole entity-set scans on the same instance, as [serve]'s scan requests
   read them: one TPT set (Set1), one TPH set (Set2) and one TPC set (Set6),
   each a chain of full outer joins over its tables, with the [phase_rows]
   of one traced plan and run. *)
let customer_set_scans st =
  let ok = function Ok x -> x | Error e -> failwith e in
  let _, db, idb, session = customer_store st in
  List.map
    (fun (set, style) ->
      let q = Query.Algebra.Scan (Query.Algebra.Entity_set set) in
      let plan = ok (Core.Session.query_plan session q) in
      let rows, agrees, rows_scanned, rows_joined, _ = exec_once st db idb q plan in
      let _, run_ms, run_mb = sample (fun () -> Exec.Run.rows idb plan) in
      if not agrees then failwith (Printf.sprintf "exec/%s scan disagrees with Eval.rows" set);
      let phases =
        phase_rows "row" ("set_scan " ^ set) (fun () ->
            ignore (Exec.Run.rows idb (ok (Core.Session.query_plan session q))))
      in
      ( [ ("set", str set); ("mapping", str style); ("rows", int (List.length rows));
          ("run_ns", num 1 (run_ms *. 1e6)); ("alloc_mb", num 3 run_mb);
          ("rows_scanned", int rows_scanned); ("rows_joined", int rows_joined);
          ("plan_nodes", int (plan_nodes session q)); ("agrees_with_eval", bool agrees) ],
        phases ))
    [ ("Set1", "TPT"); ("Set2", "TPH"); ("Set6", "TPC") ]

let exec_bench () =
  header "Exec -- physical plans (hash joins, indexed scans) vs naive evaluation";
  let ok = function Ok x -> x | Error e -> failwith e in
  let customer = customer_state () in
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
          ( Query.Join.Inner,
            A.project_renamed [ ("Id", "Employee.Id"); ("Name", "Name") ]
              (A.Scan (A.Entity_set "Persons")),
            A.Scan (A.Assoc_set "Supports"),
            [ "Employee.Id" ] ) );
      ( "union",
        A.project_cols [ "Id"; "Name"; "CredScore" ]
          (A.Select (Query.Cond.Is_of "Customer", A.Scan (A.Entity_set "Persons"))) );
    ]
  in
  let sizes = [ 200; 800; 3200 ] in
  Printf.printf "model: paper stage 4; shapes: assoc point lookup, 2-way join, IS OF flattening\n%!";
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
            (* the first run builds row arrays and indexes *)
            let exec_rows, exec_ms, exec_mb = sample (fun () -> Exec.Run.rows idb plan) in
            let naive_rows, naive_ms, naive_mb = sample (fun () -> Query.Eval.rows env db unfolded) in
            let sorted = List.sort Datum.Row.compare in
            if not (List.equal Datum.Row.equal (sorted naive_rows) (sorted exec_rows)) then
              failwith (Printf.sprintf "exec/%s disagrees with Eval.rows at n=%d" shape n);
            (n, shape, (naive_ms *. 1e6, naive_mb), (exec_ms *. 1e6, exec_mb), Exec.Plan.index_scans plan))
          (shapes n))
      sizes
  in
  (* Acceptance (ISSUE 4): the physical engine beats Eval.rows by >= 5x on
     the 2-way join at the largest instance size. *)
  let hi = List.nth sizes (List.length sizes - 1) in
  let acceptance =
    List.filter_map
      (fun (n, shape, (naive_ns, _), (exec_ns, _), _) ->
        if n = hi && shape = "join" then
          Some
            [ ("join_instance", int hi); ("naive_over_exec", num 2 (naive_ns /. exec_ns));
              ("pass", bool (naive_ns /. exec_ns >= 5.0)) ]
        else None)
      results
  in
  let lookups = customer_lookups customer and scans = customer_set_scans customer in
  emit "exec"
    [ { name = "paper"; keys = [ "instance"; "shape" ];
        rows =
          List.map
            (fun (n, shape, (naive_ns, naive_mb), (exec_ns, exec_mb), index_scans) ->
              [ ("instance", int n); ("shape", str shape); ("naive_ns", num 1 naive_ns);
                ("naive_alloc_mb", num 4 naive_mb); ("exec_ns", num 1 exec_ns);
                ("alloc_mb", num 4 exec_mb);
                ("naive_over_exec", num 1 (naive_ns /. exec_ns)); ("index_scans", int index_scans) ])
            results };
      { name = "customer_key_lookups"; keys = [ "set" ]; rows = List.map fst lookups };
      { name = "customer_set_scans"; keys = [ "set" ]; rows = List.map fst scans };
      { name = "acceptance"; keys = []; rows = acceptance };
      { name = "phases"; keys = [ "row"; "phase" ]; rows = List.concat_map snd (lookups @ scans) } ]

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
  let rows =
    List.map
      (fun (name, gen) ->
        let env, frags = gen () in
        let c = ok (Fullc.Compile.compile ~validate:false env frags) in
        let views = (c.Core.State.query_views, c.Core.State.update_views) in
        let diags, lint_ms, lint_mb = sample (fun () -> Lint.Analyze.run ~views env frags) in
        let _, val_ms, _ = sample (fun () -> ok (Fullc.Validate.run env frags)) in
        let sharing = Query.Algebra.sharing (Query.View.queries (fst views) (snd views)) in
        let phases =
          phase_rows "model" name (fun () -> ignore (Lint.Analyze.run ~views env frags))
        in
        ((name, lint_ms, lint_mb, val_ms, List.length diags, sharing), phases))
      models
  in
  let phases = List.concat_map snd rows and rows = List.map fst rows in
  (* The customer run split by artifact, as [Lint.Analyze.run] runs it. *)
  let passes =
    let env, frags = Workload.Customer.generate () in
    let c = ok (Fullc.Compile.compile ~validate:false env frags) in
    let qv, uv = (c.Core.State.query_views, c.Core.State.update_views) in
    List.map
      (fun (pass, f) ->
        let _, ms, mb = sample f in
        [ ("pass", str pass); ("ms", num 3 ms); ("alloc_mb", num 2 mb) ])
      [
        ("mapping", fun () -> ignore (Lint.Passes.run env frags));
        ("views", fun () -> ignore (Lint.Wf.check env qv uv));
      ]
  in
  (* Acceptance (ISSUE 6): linting the seed model suite is >= 50x faster
     than the obligation-based validation it screens for. *)
  let total_lint = List.fold_left (fun a (_, l, _, _, _, _) -> a +. l) 0. rows in
  let total_val = List.fold_left (fun a (_, _, _, v, _, _) -> a +. v) 0. rows in
  let speedup = total_val /. total_lint in
  emit "lint"
    [ { name = "models"; keys = [ "model" ];
        rows =
          List.map
            (fun (name, lint_ms, lint_mb, val_ms, diags, (tree, distinct)) ->
              [ ("model", str name); ("lint_ms", num 3 lint_ms); ("alloc_mb", num 2 lint_mb);
                ("validate_ms", num 3 val_ms); ("speedup", num 1 (val_ms /. lint_ms));
                ("diags", int diags); ("tree_nodes", int tree); ("distinct_nodes", int distinct) ])
            rows };
      { name = "customer_passes"; keys = [ "pass" ]; rows = passes };
      { name = "phases"; keys = [ "model"; "phase" ]; rows = phases };
      { name = "suite"; keys = [];
        rows =
          [ [ ("lint_ms", num 3 total_lint); ("validate_ms", num 3 total_val);
              ("speedup", num 1 speedup); ("pass", bool (speedup >= 50.)) ] ] } ]

(* ------------------------------------------------------------------ *)
(* The persisted Fig. 7 loop (e2ebench's edit workload), layer by       *)
(* layer: what loading the customer .imcs, each suite SMO, linting the  *)
(* mapping and the views, and saving cost on their own.                 *)
(* ------------------------------------------------------------------ *)

let edit_bench () =
  header "Edit -- the persisted Fig. 7 loop on the customer model, by layer";
  let ok = function Ok x -> x | Error e -> failwith e in
  let env, frags = Workload.Customer.generate () in
  let text = Surface.State_io.save (ok (Fullc.Compile.compile ~validate:false env frags)) in
  let st = ok (Surface.State_io.load text) in
  let env = st.Core.State.env and frags = st.Core.State.fragments in
  let qv, uv = (st.Core.State.query_views, st.Core.State.update_views) in
  let rows =
    [ ("load", "surface", fun () -> ignore (ok (Surface.State_io.load text))) ]
    @ List.map
        (fun (label, smo) ->
          (label, "smo", fun () -> ignore (Core.Engine.apply st smo)))
        (Workload.Customer.smo_suite ())
    @ [
        ("mapping", "lint", fun () -> ignore (Lint.Passes.run env frags));
        ("views", "lint", fun () -> ignore (Lint.Wf.check env qv uv));
        ("save", "surface", fun () -> ignore (Surface.State_io.save st));
      ]
  in
  (* One op of e2ebench's loop: load, apply (validated), lint, save. *)
  let op smo () =
    let s = Core.Session.start (ok (Surface.State_io.load text)) in
    match Core.Session.apply s smo with
    | Ok s ->
        ignore (Core.Session.lint s);
        ignore (Surface.State_io.save (Core.Session.current s))
    | Error e -> failwith (Containment.Validation_error.show e)
  in
  let phases =
    List.concat_map (fun (label, smo) -> phase_rows "row" label (op smo)) (Workload.Customer.smo_suite ())
  in
  (* The term-table size that one save tags on its [surface.io.encode], and
     the distinct atoms one load tags on its [surface.io.decode]. *)
  let terms, atoms =
    Obs.Span.reset ();
    Obs.enable ();
    ignore (Surface.State_io.save st);
    ignore (Surface.State_io.load text);
    Obs.disable ();
    let n = (span_tag_total ~name:"surface.io.encode" "terms", span_tag_total ~name:"surface.io.decode" "atoms") in
    Obs.Span.reset ();
    n
  in
  emit "edit"
    [ { name = "state"; keys = [];
        rows =
          [ [ ("model", str "customer"); ("state_bytes", int (String.length text));
              ("terms", int terms); ("atoms", int atoms) ] ] };
      { name = "layers"; keys = [ "layer" ];
        rows =
          List.map
            (fun (name, kind, f) ->
              let _, ms, mb = sample f in
              [ ("layer", str name); ("kind", str kind); ("ms", num 3 ms); ("alloc_mb", num 2 mb) ])
            rows };
      (* The whole op per suite SMO, untraced: its exact allocation, from
         [Gc.minor_words] as every [alloc_mb] here, stands next to
         e2ebench's [alloc_mb_per_op], which reads [Gc.counters]. *)
      { name = "loop"; keys = [ "smo" ];
        rows =
          List.map
            (fun (label, smo) ->
              let _, ms, mb = sample (op smo) in
              [ ("smo", str label); ("ms", num 3 ms); ("alloc_mb", num 2 mb) ])
            (Workload.Customer.smo_suite ()) };
      { name = "phases"; keys = [ "row"; "phase" ]; rows = phases } ]

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let chain_size = match chain_size_arg with [ _; n ] -> int_of_string n | _ -> 1002 in
  let all =
    [ "fig2"; "fig4"; "fig9"; "fig10"; "ablation"; "par"; "obs"; "ivm"; "exec"; "lint"; "edit" ]
  in
  let modes = match List.filter (fun a -> List.mem a all) args with [] -> all | modes -> modes in
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
      | "edit" -> edit_bench ()
      | _ -> ())
    modes
