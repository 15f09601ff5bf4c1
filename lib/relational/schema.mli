(** Store schemas: a collection of tables with cross-table foreign keys. *)

type t

val empty : t
val add_table : Table.t -> t -> (t, string) result
val replace_table : Table.t -> t -> (t, string) result
(** Swap in a new definition for an existing table (used by SMOs that add
    columns or foreign keys to an existing table). *)

val find_table : t -> string -> Table.t option
val get_table : t -> string -> Table.t
(** @raise Invalid_argument on unknown tables. *)

val tables : t -> Table.t list
(** Ascending name order. *)

val well_formed : t -> (unit, string) result
(** Keys declared over existing columns; foreign keys target existing tables,
    match the full referenced key, and agree column-for-column on domains. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
