(** Store states: row populations per table — the [s] in [M ⊆ C × S].

    {!conforms} implements exactly the integrity constraints the paper's
    validation must preserve: domain constraints, key uniqueness, and
    foreign keys (Section 3.1.4). *)

type t

val empty : t
val add_row : table:string -> Datum.Row.t -> t -> t
val set_rows : table:string -> Datum.Row.t list -> t -> t
val rows : t -> table:string -> Datum.Row.t list
val tables : t -> string list

val values : t -> table:string -> string array -> Datum.Value.t array list
(** [values t ~table layout] is [List.map (Datum.Row.values layout) (rows t
    ~table)]: the table's rows as value arrays, in row order.  A table
    keeps the arrays of the last layout asked for as part of its value, so
    they are computed once per table value and layout: [add_row] and
    [set_rows] make a fresh table, and every table they leave alone keeps
    its arrays.  A different layout recomputes them and replaces the kept
    ones.  {!equal}, {!pp}, {!conforms} and {!rows} ignore them. *)

val conforms : Schema.t -> t -> (unit, string) result
(** Every row carries exactly the table's columns with domain-respecting
    values, [NULL] only in nullable columns, unique non-null keys, and every
    foreign key resolving (rows with any [NULL] foreign-key column are
    exempt, as in SQL's simple match). *)

val equal : t -> t -> bool
(** Set-semantics equality per table. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
