(* End-to-end benchmark over the customer model.  See README.md.

     e2e.exe --workload edit|session|serve --seed N --seconds S --trace 0|1

   Prints a diagnostics line, then one JSON result line: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

open Common

type workload = Edit | Session | Serve

let workload_of_string = function
  | "edit" -> Edit
  | "session" -> Session
  | "serve" -> Serve
  | w -> failwith ("unknown workload " ^ w)

let salt = function Edit -> 1 | Session -> 2 | Serve -> 3

(* Ops per measured second on the reference host (2-core x86-64 container).
   A run does a fixed number of ops derived from --seconds, not as many as fit
   in the time, so that every count and allocation figure repeats exactly for
   a given seed; the ops of a run last about --seconds on that host. *)
let ops_per_second = function Edit -> 0.6 | Session -> 2.0 | Serve -> 130.0

let ops_for w seconds =
  let n = max 1 (int_of_float (Float.round (ops_per_second w *. float_of_int seconds))) in
  (* [edit] works in whole rounds of the nine-SMO suite. *)
  match w with Edit -> 9 * ((n + 8) / 9) | Session | Serve -> n

(* Set-up is timed [setup_samples] times, each on a collected heap: once
   before the measured pass, for the input the pass uses, and then between
   ops at evenly spaced points of the pass.  The median is reported.  The
   samples span the whole run, so one fast or slow moment of the host does
   not set the figure. *)
let setup_samples = 9

(* The op indices before which the pass pauses for a set-up sample, one in
   the middle of each of [setup_samples - 1] equal stretches of the pass.
   An index can repeat when the pass is short. *)
let setup_points ops =
  let k = setup_samples - 1 in
  List.init k (fun j -> (2 * j + 1) * ops / (2 * k))

(* The saved text and the state loaded from it; [serve] adds its instance. *)
type input = { text : string; st : Core.State.t; serve : Serve.input option }

let build w =
  let text, st = Suite.compiled_state () in
  { text; st; serve = (match w with Serve -> Some (Serve.setup st) | Edit | Session -> None) }

let timed_setup w =
  Gc.full_major ();
  let t0 = now () in
  let input = build w in
  (now () -. t0, input)

(* A sample taken between ops runs in a forked child, which has the pass's
   live heap as its own: it costs what an in-process set-up costs there, but
   its memory stays out of the workload's peak RSS.  The child writes its
   time to a pipe and exits without running [at_exit]. *)
let forked_setup_s w =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      let code =
        match timed_setup w with
        | t, _ ->
            let s = Printf.sprintf "%.17g" t in
            ignore (Unix.write_substring wr s 0 (String.length s));
            0
        | exception _ -> 1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let out = In_channel.input_all ic in
      close_in ic;
      match (Unix.waitpid [] pid, float_of_string_opt out) with
      | (_, Unix.WEXITED 0), Some t -> t
      | _ -> failwith "set-up sample failed")

let run_pass w ~seed ~ops ~tracing ~pause input =
  let p = new_pass ~tracing ~pause in
  let rng = Random.State.make [| seed; salt w |] in
  Gc.full_major ();
  (match (w, input.serve) with
  | Edit, _ -> Edit.run ~rng ~ops p input.text
  | Session, _ -> Sess.run ~rng ~ops p input.st
  | Serve, Some i -> Serve.run ~rng ~ops p i
  | Serve, None -> invalid_arg "serve without its instance");
  p

(* -- metrics ---------------------------------------------------------------- *)

let per_op p x = x /. float_of_int (max 1 p.attempted)
let count p name = float_of_int (counter_delta p.counts name)
let ratio p hit miss =
  let h = count p hit and m = count p miss in
  if h +. m = 0. then 0. else h /. (h +. m)

(* Gated by a bound: these do not move with the host's speed. *)
let end_to_end ~setup_s ~state_mb p =
  [ ("setup_s", setup_s, "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("alloc_mb_per_op", per_op p (mb_of_words p.op_words), "MB");
    ("state_mb", state_mb, "MB") ]

(* Latency, measured with tracing off.  It moves with the host's speed by
   more than any bound of 25% allows, so it is reported beside the gated
   metrics (in the diagnostics, and among the traced run's metrics), not
   gated. *)
let timings p =
  [ ("op_p50_ms", median p.op_ms, "ms");
    ("ops_per_s", float_of_int p.attempted /. (sum p.op_ms /. 1e3), "1/s");
    ("write_p50_ms", median p.write_ms, "ms") ]

let counted =
  [ ("containment.checks", "containment.checks");
    ("containment.cq_pairs", "containment.cq_pairs");
    ("containment.hom_steps", "containment.hom_steps");
    ("containment.obligations", "containment.obligations");
    ("exec.rows_scanned", "exec.rows.scanned");
    ("exec.rows_joined", "exec.rows.joined");
    ("exec.index_builds", "exec.index.builds");
    ("exec.index_hits", "exec.index.hits") ]
  @ List.map
      (fun k -> ("ivm.rows." ^ k, "ivm.rows." ^ k))
      [ "ctor"; "distinct"; "join"; "project"; "scan"; "select"; "union" ]

let per_layer ~untraced:a ~traced:b =
  let r = a.rec_ in
  let med name = median (samples r name) in
  let ops_b = float_of_int (max 1 b.attempted) in
  timings a
  @ [ ("surface.load_ms", med "surface.load", "ms");
    ("surface.save_ms", med "surface.save", "ms");
    ("surface.alloc_mb", per_op a (mb_of_words (words r "surface.load" +. words r "surface.save")), "MB");
    ("lint.run_ms", med "lint.run", "ms");
    ("lint.cache_hit_ratio", ratio a "lint.cache.hit" "lint.cache.miss", "ratio");
    ("core.apply_ms", med "core.apply", "ms") ]
  @ List.map (fun l -> ("core.smo." ^ l ^ "_ms", med ("core.smo." ^ l), "ms")) Suite.labels
  @ [ ("core.rollback_ms", med "core.rollback", "ms");
      (* A mean, not a median: plan-memo hits are most calls, and the
         misses are what costs. *)
      ("core.query_plan_ms", mean (samples r "core.query_plan"), "ms");
      ("exec.run_ms", med "exec.run", "ms");
      ("exec.plan_cache_hit_ratio", ratio a "exec.plan.cache.hit" "exec.plan.cache.miss", "ratio");
      ("dml.ivm_step_ms", med "dml.ivm_step", "ms") ]
  @ List.map (fun (metric, counter) -> (metric, per_op a (count a counter), "count")) counted
  @ List.concat_map
      (fun l ->
        [ (l ^ ".total_ms", rollup_ms b.ru.total l /. ops_b, "ms");
          (l ^ ".self_ms", rollup_ms b.ru.self l /. ops_b, "ms") ])
      layers
  @ [ ("bench.self_ms", rollup_ms b.ru.self "bench" /. ops_b, "ms");
      ("trace.spans_per_op", float_of_int b.ru.spans /. ops_b, "count");
      ("trace.overhead_pct", 100. *. ((sum b.op_ms /. sum a.op_ms) -. 1.), "%") ]

let metrics_json ms =
  json_object
    (List.map
       (fun (name, v, unit) ->
         (name, json_object [ ("value", json_number v); ("unit", json_string unit) ]))
       ms)

(* -- main ------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "edit|session|serve");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence");
      ("--seconds", Arg.Set_int seconds, "S run length on the reference host");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run") ]
    (fun a -> failwith ("unexpected argument " ^ a))
    "e2e.exe --workload W --seed N --seconds S --trace 0|1";
  let w = workload_of_string !workload in
  let env = List.map (fun v -> (v, Sys.getenv_opt v)) env_switches in
  List.iter
    (function
      | v, Some _ ->
          Printf.eprintf "e2e: %s is set; the benchmark runs with it unset\n" v;
          exit 2
      | _, None -> ())
    env;
  let ops = ops_for w !seconds in
  let probe_before = probe_ms () in
  let first_setup_s, input = timed_setup w in
  let setup_times = ref [ first_setup_s ] in
  let t_run = now () in
  (* Only the untraced pass of an end-to-end run pauses for set-up samples;
     a traced run reports no [setup_s]. *)
  let pause =
    if !trace = 0 then
      let points = setup_points ops in
      fun i ->
        List.iter (fun j -> if i = j then setup_times := forked_setup_s w :: !setup_times) points
    else ignore
  in
  let a = run_pass w ~seed:!seed ~ops ~tracing:false ~pause input in
  let b =
    if !trace = 1 then Some (run_pass w ~seed:!seed ~ops ~tracing:true ~pause:ignore input)
    else None
  in
  let run_s = now () -. t_run in
  let setup_s = median !setup_times in
  let probe_after = probe_ms () in
  let passes = a :: Option.to_list b in
  (* The traced pass repeats the untraced one: same ops, same counts. *)
  (match b with
  | Some b when digest b <> digest a || b.counts.Obs.Metric.counters <> a.counts.Obs.Metric.counters ->
      checked b [ "traced pass did not repeat the untraced pass" ]
  | _ -> ());
  let state_mb =
    match a.state_bytes with
    | [] -> float_of_int (String.length input.text) /. 1e6
    | xs -> median xs /. 1e6
  in
  let attempted = List.fold_left (fun n p -> n + p.attempted) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.failed) 0 passes in
  let metrics =
    match b with
    | None -> end_to_end ~setup_s ~state_mb a
    | Some b -> per_layer ~untraced:a ~traced:b
  in
  let diagnostics =
    json_object
      [ ("workload", json_string !workload);
        ("seed", string_of_int !seed);
        ("ops", string_of_int ops);
        ("ops_digest", json_string (digest a));
        ("run_s", json_number run_s);
        ("setup_samples_s", "[" ^ String.concat ", " (List.rev_map json_number !setup_times) ^ "]");
        ("timed_s", json_number (sum a.op_ms /. 1e3));
        ("timings",
         json_object
           (("op_p90_ms",
             if List.length a.op_ms >= 100 then json_number (percentile 0.9 a.op_ms) else "null")
           :: List.map (fun (name, v, _) -> (name, json_number v)) (timings a)));
        ("host_probe_ms",
         json_object [ ("before", json_number probe_before); ("after", json_number probe_after) ]);
        ("env",
         json_object
           (List.map (fun (v, x) -> (v, match x with None -> "null" | Some s -> json_string s)) env));
        ("counts",
         json_object (List.map (fun (k, v) -> (k, string_of_int v)) a.counts.Obs.Metric.counters));
        ("failures",
         "[" ^ String.concat ", "
                 (List.map json_string (List.concat_map (fun p -> List.rev p.failures) passes))
         ^ "]") ]
  in
  print_endline (json_object [ ("diagnostics", diagnostics) ]);
  print_endline
    (json_object
       [ ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json metrics) ])
