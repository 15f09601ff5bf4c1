(** Rows: finite maps from column names to values.

    Rows are the common currency of the whole stack — store tuples, entity
    attribute records, association tuples, and the intermediate results of
    view evaluation all are rows. *)

type t

val empty : t
val of_list : (string * Value.t) list -> t
val to_list : t -> (string * Value.t) list
(** Bindings in ascending column-name order. *)

val find : string -> t -> Value.t option
val get : string -> t -> Value.t
(** @raise Not_found if the column is absent. *)

val add : string -> Value.t -> t -> t

val mapi : (string -> Value.t -> Value.t) -> t -> t
(** The same columns, each bound to [f column value]: one allocation per
    column, where binding them one {!add} at a time copies a path per
    column. *)

val columns : t -> string list

val values : string array -> t -> Value.t array
(** [values layout r] holds [r]'s value of each column of [layout] at that
    column's position, [NULL] for a column [r] lacks: the positional form
    every row takes in the plan runtimes. *)

val of_values : string array -> Value.t array -> t
(** [of_values layout vs] binds each column of [layout] to its slot's
    value in [vs] ([Tuple.get]: [NULL] past the array's end), [NULL]s
    included: the inverse of {!values} on a row binding exactly [layout]'s
    columns. *)

val project : string list -> t -> t
(** Keep only the named columns.  Absent columns are silently dropped, so
    projection never invents bindings. *)

val union : t -> t -> t
(** Left-biased union: bindings of the first row win on clashes. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val show : t -> string
