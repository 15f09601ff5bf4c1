(** A minimal s-expression library, the syntax of compiled-state ([.imcs])
    documents as a tree.  [Surface.State_io] reads and writes those
    documents in one pass without it; the tests use it to build tree-form
    documents and to print the {!State_io_tree} oracle's. *)

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

(** {1 Combinators for encoding} *)

val string : string -> t
val int : int -> t
val bool : bool -> t
val pair : t -> t -> t
val field : string -> t list -> t
(** [field name args] is [List (Atom name :: args)]. *)
