(* The observability layer itself: span nesting and timing, counter
   snapshots, exporters, and the disabled-by-default guarantee. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_collection f =
  Obs.Span.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* -- spans ----------------------------------------------------------------- *)

let test_nesting () =
  with_collection (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"inner-1" (fun () -> ());
          Obs.Span.with_ ~name:"inner-2" ~attrs:[ ("k", "v") ] (fun () -> ())));
  match Obs.Span.roots () with
  | [ root ] ->
      checks "root name" "outer" (Obs.Span.name root);
      let kids = Obs.Span.children root in
      checki "two children" 2 (List.length kids);
      checks "child order" "inner-1" (Obs.Span.name (List.nth kids 0));
      checks "child attrs" "v" (List.assoc "k" (Obs.Span.attrs (List.nth kids 1)))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_timing_monotonic () =
  with_collection (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)))));
  match Obs.Span.roots () with
  | [ root ] ->
      let inner = List.hd (Obs.Span.children root) in
      let finish s = Obs.Span.start_s s +. Obs.Span.duration_s s in
      checkb "root finishes after it starts" true (finish root >= Obs.Span.start_s root);
      checkb "child within parent start" true (Obs.Span.start_s inner >= Obs.Span.start_s root);
      checkb "child within parent finish" true
        (finish inner <= finish root);
      checkb "durations non-negative" true
        (Obs.Span.duration_s root >= 0. && Obs.Span.duration_s inner >= 0.);
      checkb "self time <= duration" true (Obs.Span.self_s root <= Obs.Span.duration_s root)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* A span records the memory allocated while it was open, its children's
   included: a 10,000-element list (30,000 minor words) inside, and a
   100,000-element array (allocated directly in the major heap) in a
   sibling child, each counted with a few words of bookkeeping at most.
   [alloc_mb] is a whole number of words in MB, so rounding its words back
   is exact. *)
let test_alloc_words () =
  with_collection (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"list" (fun () ->
              ignore (Sys.opaque_identity (List.init 10_000 Fun.id)));
          Obs.Span.with_ ~name:"array" (fun () ->
              ignore (Sys.opaque_identity (Array.make 100_000 0)))));
  match Obs.Span.roots () with
  | [ root ] ->
      let alloc_words s = Float.round (Obs.Span.alloc_mb s *. 1e6 /. float_of_int (Sys.word_size / 8)) in
      let words name =
        alloc_words (List.find (fun s -> Obs.Span.name s = name) (Obs.Span.children root))
      in
      let around what expected got =
        checkb
          (Printf.sprintf "%s: %.0f words for %d" what got expected)
          true
          (got >= float_of_int expected && got < float_of_int expected +. 1000.)
      in
      around "list" 30_000 (words "list");
      around "array" 100_001 (words "array");
      checkb "outer covers its children" true (alloc_words root >= words "list" +. words "array")
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_exception_unwind () =
  (* A raising workload must not leave spans open: the escaping span still
     completes and later spans are roots, not its children. *)
  with_collection (fun () ->
      (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "boom") with Failure _ -> ());
      Obs.Span.with_ ~name:"after" (fun () -> ()));
  let names = List.map Obs.Span.name (Obs.Span.roots ()) in
  checkb "both spans are roots" true (names = [ "boom"; "after" ])

let test_disabled_no_spans () =
  Obs.Span.reset ();
  checkb "collection off" false (Obs.enabled ());
  Obs.Span.with_ ~name:"invisible" (fun () -> ());
  checki "no spans recorded" 0 (List.length (Obs.Span.roots ()));
  checki "fold_all sees nothing" 0 (Obs.Span.fold_all (fun n _ -> n + 1) 0)

(* -- metrics ---------------------------------------------------------------- *)

let test_counter_snapshot_diff () =
  let c = Obs.Metric.counter "test.obs.counter" in
  let v0 = Obs.Metric.value c in
  Obs.Metric.incr c;
  Obs.Metric.incr ~by:4 c;
  checki "counter value" (v0 + 5) (Obs.Metric.value c);
  let before = Obs.Metric.snapshot () in
  Obs.Metric.incr ~by:7 c;
  let after = Obs.Metric.snapshot () in
  let d = Obs.Metric.diff before after in
  checki "diff is the delta" 7 (List.assoc "test.obs.counter" d.Obs.Metric.counters);
  checkb "no gauge registered" true (after.Obs.Metric.gauges = [] && d.Obs.Metric.gauges = []);
  checkb "registration is idempotent" true
    (Obs.Metric.value (Obs.Metric.counter "test.obs.counter") = v0 + 12)

let test_counters_live_when_disabled () =
  checkb "collection off" false (Obs.enabled ());
  let c = Obs.Metric.counter "test.obs.live" in
  let v0 = Obs.Metric.value c in
  Obs.Metric.incr c;
  checki "counter counts with spans off" (v0 + 1) (Obs.Metric.value c)

(* -- exporters --------------------------------------------------------------- *)

(* A JSON validator sufficient for the trace_event output. *)
let rec skip_ws s i = if i < String.length s && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t') then skip_ws s (i + 1) else i

let rec parse_value s i =
  let i = skip_ws s i in
  if i >= String.length s then failwith "eof"
  else
    match s.[i] with
    | '{' -> parse_members s (skip_ws s (i + 1)) true
    | '[' -> parse_elements s (skip_ws s (i + 1)) true
    | '"' -> parse_string s (i + 1)
    | 't' -> i + 4
    | 'f' -> i + 5
    | 'n' -> i + 4
    | _ ->
        let j = ref i in
        while
          !j < String.length s
          && (match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
        do
          incr j
        done;
        if !j = i then failwith "bad value" else !j

and parse_string s i =
  if i >= String.length s then failwith "eof in string"
  else if s.[i] = '"' then i + 1
  else if s.[i] = '\\' then parse_string s (i + 2)
  else parse_string s (i + 1)

and parse_members s i first =
  let i = skip_ws s i in
  if i < String.length s && s.[i] = '}' then i + 1
  else
    let i = if first then i else if s.[i] = ',' then skip_ws s (i + 1) else failwith "expected ," in
    if s.[i] <> '"' then failwith "expected key";
    let i = parse_string s (i + 1) in
    let i = skip_ws s i in
    if i >= String.length s || s.[i] <> ':' then failwith "expected :";
    let i = parse_value s (i + 1) in
    parse_members s i false

and parse_elements s i first =
  let i = skip_ws s i in
  if i < String.length s && s.[i] = ']' then i + 1
  else
    let i = if first then i else if s.[i] = ',' then skip_ws s (i + 1) else failwith "expected ," in
    let i = parse_value s i in
    parse_elements s i false

let json_valid s =
  match parse_value s 0 with
  | i -> skip_ws s i = String.length s
  | exception Failure _ -> false

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_trace_json () =
  with_collection (fun () ->
      Obs.Span.with_ ~name:"phase-a" ~attrs:[ ("quote", "a\"b") ] (fun () ->
          Obs.Span.with_ ~name:"phase-b" (fun () -> ())));
  let json = Obs.Export.trace_json ~process:"test" () in
  checkb "valid JSON" true (json_valid json);
  checkb "has traceEvents" true (contains ~sub:"\"traceEvents\"" json);
  checkb "complete events" true (contains ~sub:"\"ph\":\"X\"" json);
  checkb "both spans exported" true
    (contains ~sub:"\"phase-a\"" json && contains ~sub:"\"phase-b\"" json);
  checkb "attribute quoting escaped" true (contains ~sub:"a\\\"b" json)

let test_aggregate () =
  with_collection (fun () ->
      Obs.Span.with_ ~name:"agg" (fun () -> ());
      Obs.Span.with_ ~name:"agg" (fun () -> ()));
  match List.assoc_opt "agg" (Obs.Export.aggregate ()) with
  | Some a ->
      checki "aggregate count" 2 a.Obs.Export.count;
      checkb "aggregate total covers both" true (a.Obs.Export.total_s >= 0.)
  | None -> Alcotest.fail "missing aggregate row"

(* The roll-up is keyed by span path: one phase under two parents is two
   rows, and repeats of one path add up. *)
let test_aggregate_path_keyed () =
  with_collection (fun () ->
      List.iter
        (fun smo ->
          Obs.Span.with_ ~name:smo (fun () ->
              Obs.Span.with_ ~name:"discharge.batch" (fun () ->
                  Obs.Span.with_ ~name:"containment.obligation" (fun () -> ()))))
        [ "smo:A"; "smo:B"; "smo:A" ]);
  let rows = Obs.Export.aggregate () in
  let count path =
    match List.assoc_opt path rows with Some a -> a.Obs.Export.count | None -> 0
  in
  Alcotest.(check (list string))
    "paths in first-appearance order"
    [ "smo:A"; "smo:A/discharge.batch"; "smo:A/discharge.batch/containment.obligation"; "smo:B";
      "smo:B/discharge.batch"; "smo:B/discharge.batch/containment.obligation" ]
    (List.map fst rows);
  checki "repeated path adds up" 2 (count "smo:A/discharge.batch");
  checki "other parent keeps its own row" 1 (count "smo:B/discharge.batch");
  checki "no name-keyed row" 0 (count "discharge.batch");
  let table = Format.asprintf "%a" Obs.Export.pp_aggregate () in
  checkb "table shows the full path" true
    (contains ~sub:"smo:B/discharge.batch/containment.obligation" table)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "timing monotonicity" `Quick test_timing_monotonic;
          Alcotest.test_case "allocation" `Quick test_alloc_words;
          Alcotest.test_case "exception unwind" `Quick test_exception_unwind;
          Alcotest.test_case "disabled mode records nothing" `Quick test_disabled_no_spans;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot/diff round-trip" `Quick test_counter_snapshot_diff;
          Alcotest.test_case "counters live when disabled" `Quick test_counters_live_when_disabled;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "trace_event JSON" `Quick test_trace_json;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate keyed by span path" `Quick test_aggregate_path_keyed;
        ] );
    ]
