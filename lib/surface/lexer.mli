(** Lexer for the model and SMO-script surface syntax. *)

type token =
  | Ident of string   (** identifiers, possibly dotted: [Customer.Id] *)
  | Int of int        (** [-?digits] *)
  | Float of float    (** [-?digits], then [.digits] and/or [(e|E)(+|-)?digits] *)
  | Str of string     (** double-quoted; a backslash escapes the next byte,
                          with [n], [t] and [r] read as newline, tab and
                          carriage return *)
  | LBrace | RBrace | LParen | RParen
  | Semi | Colon | Comma
  | Arrow             (** -> *)
  | DotDot            (** .. *)
  | Star
  | Op of string      (** = <> < <= > >= *)
  | Eof

type spanned = { token : token; line : int; col : int }

val tokenize : string -> (spanned list, string) result
(** The list always ends with an {!Eof} token.  [//] and [#] start comments
    to end of line. *)

val describe : token -> string
