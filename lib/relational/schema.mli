(** Store schemas: a collection of tables with cross-table foreign keys. *)

type t

val empty : t
val add_table : Table.t -> t -> (t, string) result
val remove_table : string -> t -> (t, string) result
(** Fails if another table still references the victim through a foreign
    key. *)

val replace_table : Table.t -> t -> (t, string) result
(** Swap in a new definition for an existing table (used by SMOs that add
    columns or foreign keys to an existing table). *)

val find_table : t -> string -> Table.t option
val get_table : t -> string -> Table.t
(** @raise Invalid_argument on unknown tables. *)

val tables : t -> Table.t list
(** Ascending name order. *)

val referencing : t -> string -> (Table.t * Table.foreign_key) list
(** All foreign keys (with their owning table) that point at the given
    table. *)

val well_formed : t -> (unit, string) result
(** Keys declared over existing columns; foreign keys target existing tables,
    match the full referenced key, and agree column-for-column on domains. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string
