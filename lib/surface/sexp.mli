(** A minimal s-expression library — the wire format for compiled states.

    The paper's compiler persists its output (the Entity SQL query and
    update views) to a file and reads it back on the next incremental run
    (Section 4.1); {!State_io} does the same for this compiler, and
    s-expressions are its syntax. *)

type t = Atom of string | List of t list

val equal : t -> t -> bool
val atom : string -> t
val list : t list -> t

val to_string : t -> string
(** Canonical rendering: atoms are quoted iff they are empty or contain a
    byte the reader stops a bare atom at (space, tab, LF, CR, parentheses,
    double quote, semicolon); lists are parenthesized with single-space
    separators.  [of_string (to_string s) = Ok s] for every [s]. *)

val of_string : string -> (t, string) result
(** Parse one s-expression; trailing garbage is an error.  Error messages
    carry the offending offset. *)

val of_string_many : string -> (t list, string) result

(** {1 Combinators for encoding/decoding} *)

val string : string -> t
val int : int -> t
val bool : bool -> t
val pair : t -> t -> t
val field : string -> t list -> t
(** [field name args] is [List (Atom name :: args)]. *)

val as_atom : t -> (string, string) result
val as_int : t -> (int, string) result
val as_bool : t -> (bool, string) result
val as_list : t -> (t list, string) result
val as_field : string -> t -> (t list, string) result
(** Expect [List (Atom name :: args)] and return [args]. *)

val assoc : string -> t list -> (t list, string) result
(** Find the field [name] among a list of fields. *)

val assoc_opt : string -> t list -> t list option
