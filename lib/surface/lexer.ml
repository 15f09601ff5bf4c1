type token =
  | Ident of string
  | Int of int
  | Float of float
  | Str of string
  | LBrace | RBrace | LParen | RParen
  | Semi | Colon | Comma
  | Arrow
  | DotDot
  | Star
  | Op of string
  | Eof

type spanned = { token : token; line : int; col : int }

let describe = function
  | Ident s -> Printf.sprintf "identifier %s" s
  | Int i -> Printf.sprintf "integer %d" i
  | Float f -> Printf.sprintf "number %g" f
  | Str s -> Printf.sprintf "string %S" s
  | LBrace -> "'{'" | RBrace -> "'}'" | LParen -> "'('" | RParen -> "')'"
  | Semi -> "';'" | Colon -> "':'" | Comma -> "','"
  | Arrow -> "'->'"
  | DotDot -> "'..'"
  | Star -> "'*'"
  | Op s -> Printf.sprintf "'%s'" s
  | Eof -> "end of input"

exception Error of int * int * string

let is_ident_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c = '_' || c = '$'

let is_ident_char c =
  is_ident_start c || ('0' <= c && c <= '9') || c = '.' || c = '@'

let is_digit c = '0' <= c && c <= '9'

let tokenize input =
  let n = String.length input in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let out = ref [] in
  let peek k = if !pos + k < n then Some input.[!pos + k] else None in
  let cur () = peek 0 in
  let digit k = match peek k with Some ch -> is_digit ch | None -> false in
  let advance () =
    (match cur () with
    | Some '\n' ->
        incr line;
        col := 1
    | Some _ -> incr col
    | None -> ());
    incr pos
  in
  let emit ?(l = !line) ?(c = !col) token = out := { token; line = l; col = c } :: !out in
  let error msg = raise (Error (!line, !col, msg)) in
  let lex_string () =
    let l = !line and c = !col in
    advance ();
    let b = Buffer.create 16 in
    let rec go () =
      match cur () with
      | None -> error "unterminated string literal"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match cur () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some ch -> advance (); Buffer.add_char b ch; go ()
          | None -> error "unterminated escape")
      | Some ch ->
          advance ();
          Buffer.add_char b ch;
          go ()
    in
    go ();
    emit ~l ~c (Str (Buffer.contents b))
  in
  (* -?digits, then an optional fraction and exponent; either makes a
     float.  An integer followed by '..' is a multiplicity range. *)
  let lex_number () =
    let l = !line and c = !col in
    let start = !pos in
    let digits () = while digit 0 do advance () done in
    if cur () = Some '-' then advance ();
    digits ();
    let fraction = cur () = Some '.' && digit 1 in
    if fraction then (advance (); digits ());
    let exponent =
      match cur (), peek 1 with
      | Some ('e' | 'E'), Some ('+' | '-') -> digit 2
      | Some ('e' | 'E'), _ -> digit 1
      | _, _ -> false
    in
    if exponent then (
      advance ();
      if not (digit 0) then advance ();
      digits ());
    let text = String.sub input start (!pos - start) in
    if fraction || exponent then emit ~l ~c (Float (float_of_string text))
    else
      match int_of_string_opt text with
      | Some i -> emit ~l ~c (Int i)
      | None -> error (Printf.sprintf "integer %s out of range" text)
  in
  let lex_ident () =
    let l = !line and c = !col in
    let start = !pos in
    while (match cur () with Some ch -> is_ident_char ch | None -> false) do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    (* A trailing '.' belongs to punctuation, not the identifier. *)
    let s, back =
      if String.length s > 0 && s.[String.length s - 1] = '.' then
        (String.sub s 0 (String.length s - 1), 1)
      else (s, 0)
    in
    pos := !pos - back;
    col := !col - back;
    emit ~l ~c (Ident s)
  in
  let rec go () =
    match cur () with
    | None -> ()
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance ();
        go ()
    | Some '#' ->
        while cur () <> None && cur () <> Some '\n' do advance () done;
        go ()
    | Some '/' when peek 1 = Some '/' ->
        while cur () <> None && cur () <> Some '\n' do advance () done;
        go ()
    | Some '"' -> lex_string (); go ()
    | Some '{' -> emit LBrace; advance (); go ()
    | Some '}' -> emit RBrace; advance (); go ()
    | Some '(' -> emit LParen; advance (); go ()
    | Some ')' -> emit RParen; advance (); go ()
    | Some ';' -> emit Semi; advance (); go ()
    | Some ':' -> emit Colon; advance (); go ()
    | Some ',' -> emit Comma; advance (); go ()
    | Some '*' -> emit Star; advance (); go ()
    | Some '-' when peek 1 = Some '>' -> emit Arrow; advance (); advance (); go ()
    | Some '.' when peek 1 = Some '.' -> emit DotDot; advance (); advance (); go ()
    | Some '<' when peek 1 = Some '>' -> emit (Op "<>"); advance (); advance (); go ()
    | Some '<' when peek 1 = Some '=' -> emit (Op "<="); advance (); advance (); go ()
    | Some '>' when peek 1 = Some '=' -> emit (Op ">="); advance (); advance (); go ()
    | Some '<' -> emit (Op "<"); advance (); go ()
    | Some '>' -> emit (Op ">"); advance (); go ()
    | Some '=' -> emit (Op "="); advance (); go ()
    | Some c when is_digit c || (c = '-' && digit 1) -> lex_number (); go ()
    | Some c when is_ident_start c -> lex_ident (); go ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match go () with
  | () ->
      emit Eof;
      Ok (List.rev !out)
  | exception Error (l, c, msg) -> Error (Printf.sprintf "line %d, column %d: %s" l c msg)
