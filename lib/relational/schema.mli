(** Store schemas: a collection of tables with cross-table foreign keys. *)

type t

val empty : t
val of_tables : Table.t list -> (t, int * string) result
(** The schema of the given tables, in any order: the one builder both
    loaders use.  Fails on a table name given twice, on a table that fails
    {!Table.check}, or on a foreign key whose target table is unknown, that
    does not name that table's whole key in key order, whose arity differs,
    or whose column pairs disagree on domains.  The error is the place in
    the list, from 0, of the table it refuses (the second of two namesakes,
    the table that declares a faulty foreign key) and the message, so a
    loader can say where that table is declared. *)

val add_table : Table.t -> t -> (t, string) result
(** The same rules for one new table, whose foreign keys may target the
    tables of the schema and itself. *)

val replace_table : Table.t -> t -> (t, string) result
(** Swap in a new definition for an existing table (used by SMOs that add
    columns or foreign keys to an existing table).  The same rules for the
    new definition, and for every foreign key that targets it. *)

val find_table : t -> string -> Table.t option
val get_table : t -> string -> Table.t
(** @raise Invalid_argument on unknown tables. *)

val tables : t -> Table.t list
(** Ascending name order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
