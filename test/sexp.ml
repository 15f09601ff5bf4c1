type t = Atom of string | List of t list

let equal (a : t) b = a = b

let atom s = Atom s
let list l = List l

let needs_quoting s =
  s = ""
  || String.exists
       (function ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true | _ -> false)
       s

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec add_to_buffer b = function
  | Atom s -> Buffer.add_string b (if needs_quoting s then escape s else s)
  | List l ->
      Buffer.add_char b '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ' ';
          add_to_buffer b x)
        l;
      Buffer.add_char b ')'

let to_string s =
  let b = Buffer.create 64 in
  add_to_buffer b s;
  Buffer.contents b

(* -- parsing --------------------------------------------------------------- *)

exception Parse_error of int * string

(* The reader indexes [input] directly, with no option per look at a
   character and no closure per atom or list: [of_string] reads whole saved
   states. *)
let parse_all input =
  let n = String.length input in
  let pos = ref 0 in
  let buf = Buffer.create 64 in
  let rec skip_ws () =
    if !pos < n then
      match input.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | ';' ->
          (* comment to end of line *)
          while !pos < n && input.[!pos] <> '\n' do
            incr pos
          done;
          skip_ws ()
      | _ -> ()
  in
  let rec quoted () =
    if !pos >= n then raise (Parse_error (!pos, "unterminated string"));
    match input.[!pos] with
    | '"' -> incr pos
    | '\\' ->
        incr pos;
        if !pos >= n then raise (Parse_error (!pos, "unterminated escape"));
        let c = input.[!pos] in
        incr pos;
        Buffer.add_char buf (if c = 'n' then '\n' else c);
        quoted ()
    | c ->
        incr pos;
        Buffer.add_char buf c;
        quoted ()
  in
  let parse_quoted () =
    incr pos;
    Buffer.clear buf;
    quoted ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    while
      !pos < n
      && match input.[!pos] with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
         | _ -> true
    do
      incr pos
    done;
    Atom (String.sub input start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    if !pos >= n then raise (Parse_error (!pos, "unexpected end of input"));
    match input.[!pos] with
    | '(' ->
        incr pos;
        List (parse_items [])
    | ')' -> raise (Parse_error (!pos, "unexpected )"))
    | '"' -> parse_quoted ()
    | _ -> parse_bare ()
  and parse_items acc =
    skip_ws ();
    if !pos >= n then raise (Parse_error (!pos, "unclosed parenthesis"));
    if input.[!pos] = ')' then (
      incr pos;
      List.rev acc)
    else parse_items (parse_one () :: acc)
  in
  let out = ref [] in
  skip_ws ();
  while !pos < n do
    out := parse_one () :: !out;
    skip_ws ()
  done;
  List.rev !out

let of_string_many input =
  match parse_all input with
  | sexps -> Ok sexps
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let of_string input =
  match of_string_many input with
  | Ok [ s ] -> Ok s
  | Ok [] -> Error "empty input"
  | Ok _ -> Error "trailing s-expressions after the first"
  | Error e -> Error e

(* -- combinators ----------------------------------------------------------- *)

let string s = Atom s
let int i = Atom (string_of_int i)
let bool b = Atom (if b then "true" else "false")
let pair a b = List [ a; b ]
let field name args = List (Atom name :: args)
