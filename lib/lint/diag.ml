type severity = Error | Warning | Info

type location =
  | Model
  | Entity_set of string
  | Entity_type of string
  | Assoc of string
  | Table of string
  | Fragment of string
  | Query_view of string
  | Update_view of string
[@@deriving ord]

type t = { code : string; severity : severity; loc : location; message : string }

let makef ~code ~severity ~loc fmt =
  Format.kasprintf (fun message -> { code; severity; loc; message }) fmt

(* Errors before warnings before infos. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = compare_location a.loc b.loc in
      if c <> 0 then c else String.compare a.message b.message

let sort ds = List.sort_uniq compare ds

(* A finding is a diagnostic whose location is filled in by [at]. *)
type finding = t

let finding ~code ~severity fmt = makef ~code ~severity ~loc:Model fmt
let at loc (f : finding) = { f with loc }

let union_findings a b =
  match (a, b) with [], l | l, [] -> l | _ -> List.sort_uniq compare (a @ b)

let severity_label = function Error -> "error" | Warning -> "warning" | Info -> "info"

let errors ds = List.filter (fun d -> d.severity = Error) ds

let count ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with Error -> (e + 1, w, i) | Warning -> (e, w + 1, i) | Info -> (e, w, i + 1))
    (0, 0, 0) ds

let location_kind = function
  | Model -> "model"
  | Entity_set _ -> "entity-set"
  | Entity_type _ -> "entity-type"
  | Assoc _ -> "association"
  | Table _ -> "table"
  | Fragment _ -> "fragment"
  | Query_view _ -> "query-view"
  | Update_view _ -> "update-view"

let location_name = function
  | Model -> ""
  | Entity_set s | Entity_type s | Assoc s | Table s | Fragment s | Query_view s
  | Update_view s ->
      s

let pp_location fmt loc =
  match loc with
  | Model -> Format.pp_print_string fmt "model"
  | _ -> Format.fprintf fmt "%s %s" (location_kind loc) (location_name loc)

let pp fmt d =
  Format.fprintf fmt "%-7s %s (%a): %s" (severity_label d.severity) d.code pp_location d.loc
    d.message

let to_text ds =
  let b = Buffer.create 256 in
  List.iter (fun d -> Buffer.add_string b (Format.asprintf "%a@." pp d)) ds;
  let e, w, i = count ds in
  Buffer.add_string b (Printf.sprintf "%d error(s), %d warning(s), %d info(s)\n" e w i);
  Buffer.contents b

(* -- JSON ----------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ds =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"code\": \"%s\", \"severity\": \"%s\", \"location\": {\"kind\": \"%s\", \
            \"name\": \"%s\"}, \"message\": \"%s\"}"
           (json_escape d.code) (severity_label d.severity) (location_kind d.loc)
           (json_escape (location_name d.loc))
           (json_escape d.message)))
    ds;
  let e, w, i = count ds in
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"errors\": %d,\n  \"warnings\": %d,\n  \"infos\": %d\n}\n" e w i);
  Buffer.contents b
