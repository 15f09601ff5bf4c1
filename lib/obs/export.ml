(* -- pretty-printed span tree ---------------------------------------------- *)

let pp_duration fmt s =
  if Float.is_nan s then Format.fprintf fmt "   (open)"
  else if s < 1e-3 then Format.fprintf fmt "%7.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf fmt "%7.2fms" (s *. 1e3)
  else Format.fprintf fmt "%7.2fs " s

let pp_attrs fmt = function
  | [] -> ()
  | attrs ->
      Format.fprintf fmt "  [%s]"
        (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs))

let pp_mb fmt mb = Format.fprintf fmt "%8.3fMB" mb

let rec pp_span depth fmt span =
  Format.fprintf fmt "%s%-*s %a %a%a@."
    (String.concat "" (List.init depth (fun _ -> "  ")))
    (max 1 (36 - (2 * depth)))
    (Span.name span) pp_duration (Span.duration_s span) pp_mb (Span.alloc_mb span) pp_attrs
    (Span.attrs span);
  List.iter (pp_span (depth + 1) fmt) (Span.children span)

let pp_tree fmt () = List.iter (pp_span 0 fmt) (Span.roots ())

(* -- aggregation by span path ---------------------------------------------- *)

type agg = { count : int; total_s : float; self_s : float; alloc_mb : float }

let aggregate () =
  let order = ref [] in
  let tbl = Hashtbl.create 32 in
  let rec add parent span =
    let path = match parent with None -> Span.name span | Some p -> p ^ "/" ^ Span.name span in
    (match Hashtbl.find_opt tbl path with
    | None ->
        order := path :: !order;
        Hashtbl.add tbl path
          { count = 1; total_s = Span.duration_s span; self_s = Span.self_s span;
            alloc_mb = Span.alloc_mb span }
    | Some a ->
        Hashtbl.replace tbl path
          { count = a.count + 1; total_s = a.total_s +. Span.duration_s span;
            self_s = a.self_s +. Span.self_s span; alloc_mb = a.alloc_mb +. Span.alloc_mb span });
    List.iter (add (Some path)) (Span.children span)
  in
  List.iter (add None) (Span.roots ());
  List.rev_map (fun path -> (path, Hashtbl.find tbl path)) !order

let pp_aggregate fmt () =
  let rows = aggregate () in
  let width = List.fold_left (fun w (path, _) -> max w (String.length path)) 36 rows in
  Format.fprintf fmt "%-*s %8s %10s %10s %10s@." width "phase" "count" "total" "self" "alloc";
  List.iter
    (fun (path, a) ->
      Format.fprintf fmt "%-*s %8d  %a  %a %a@." width path a.count pp_duration a.total_s
        pp_duration a.self_s pp_mb a.alloc_mb)
    rows

(* -- Chrome trace_event JSON ------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Complete ("ph":"X") events; ts/dur in microseconds, rebased to the first
   span so the numbers stay readable in about:tracing / Perfetto. *)
let trace_json ?(process = "imc") () =
  let roots = Span.roots () in
  let t0 = match roots with [] -> 0. | s :: _ -> Span.start_s s in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit span =
    if not !first then Buffer.add_string b ",";
    first := false;
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"imc\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1"
         (json_escape (Span.name span))
         ((Span.start_s span -. t0) *. 1e6)
         (Span.duration_s span *. 1e6));
    (match Span.attrs span with
    | [] -> ()
    | attrs ->
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",";
            Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          attrs;
        Buffer.add_string b "}");
    Buffer.add_string b "}"
  in
  Span.fold_all (fun () span -> emit span) ();
  Buffer.add_string b
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"process\":\"%s\"}}"
       (json_escape process));
  Buffer.contents b
