(** Entity-SQL-flavoured rendering of queries and views, in the style of
    Fig. 2 of the paper.  This is a presentation format (used by the CLI,
    the examples and the golden tests), not a parseable dialect. *)

val query : Format.formatter -> Algebra.t -> unit
val view : Format.formatter -> View.t -> unit

(** {1 Compact single-line conditions}

    The condition renderer of [Lint] diagnostics and of the fragment
    descriptions ([Mapping.Fragment.describe]) that error messages quote. *)

val cond_string : Cond.t -> string

val query_views : Format.formatter -> View.query_views -> unit
val update_views : Format.formatter -> View.update_views -> unit
