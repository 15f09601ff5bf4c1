(* The s-expression reader as first written, a character at a time through
   [peek], kept as the oracle for [Sexp]'s indexing reader: on any
   input both give the same trees or the same error message. *)

module S = Sexp

exception Parse_error of int * string

let parse_all input =
  let n = String.length input in
  let pos = ref 0 in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        while peek () <> None && peek () <> Some '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let parse_quoted () =
    advance ();
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise (Parse_error (!pos, "unterminated string"))
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> raise (Parse_error (!pos, "unterminated escape")))
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    S.Atom (Buffer.contents b)
  in
  let parse_bare () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';') | None -> ()
      | Some _ ->
          advance ();
          go ()
    in
    go ();
    S.Atom (String.sub input start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error (!pos, "unexpected end of input"))
    | Some '(' ->
        advance ();
        let items = ref [] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> raise (Parse_error (!pos, "unclosed parenthesis"))
          | Some _ ->
              items := parse_one () :: !items;
              go ()
        in
        go ();
        S.List (List.rev !items)
    | Some ')' -> raise (Parse_error (!pos, "unexpected )"))
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
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
