(** Store states: row populations per table — the [s] in [M ⊆ C × S].

    {!conforms} implements exactly the integrity constraints the paper's
    validation must preserve: domain constraints, key uniqueness, and
    foreign keys (Section 3.1.4). *)

type t

type image = {
  layout : string array;  (** the table's columns: the column at each slot of its rows *)
  counts : int Datum.Tuple.Map.t;
      (** the table's rows, each with a positive count: how many times the
          bag the table is the DISTINCT of holds it *)
  key : (int * Datum.Tuple.t list Datum.Value.Map.t) option;
      (** for a table whose primary key is one column, that column's slot
          and, per non-[NULL] value there, the rows holding it, ascending *)
}
(** A table as a maintainer keeps it ([Ivm.State] does): its rows as value
    arrays in the table's layout, with their counts and, for a one-column
    key, a map from key value to rows.  A row may be shorter than the
    layout; past its end every slot reads [NULL] ([Datum.Tuple]).  The
    image is the table: its [Datum.Row.t] rows are built from it only when
    {!rows} (or {!equal}, {!pp}, {!conforms}) asks, and then kept with
    it. *)

val empty : t
val add_row : table:string -> Datum.Row.t -> t -> t
val set_rows : table:string -> Datum.Row.t list -> t -> t

val set_image : table:string -> image -> t -> t
(** Make the table the given image. *)

val image : t -> table:string -> image option
(** The table's image, if {!set_image} made it one and no {!add_row} or
    {!set_rows} has replaced it since. *)

val rows : t -> table:string -> Datum.Row.t list
(** An image's rows bind every column of its layout, in ascending array
    order. *)

val tables : t -> string list

val values : t -> table:string -> string array -> Datum.Value.t array list
(** [values t ~table layout] is [List.map (Datum.Row.values layout) (rows t
    ~table)]: the table's rows as value arrays, in row order.  For an
    image in its own layout they are the image's arrays, listed in
    ascending order, and a row may be shorter than the layout (reading
    [NULL] past its end).  A table keeps the arrays of the last layout
    asked for as part of its value, so they are computed once per table
    value and layout: [add_row], [set_rows] and [set_image] make a fresh
    table, and every table they leave alone keeps its arrays.  A different layout recomputes them and replaces the kept
    ones.  {!equal}, {!pp}, {!conforms} and {!rows} ignore them. *)

val conforms : Schema.t -> t -> (unit, string) result
(** Every row carries exactly the table's columns with domain-respecting
    values, [NULL] only in nullable columns, unique non-null keys, and every
    foreign key resolving (rows with any [NULL] foreign-key column are
    exempt, as in SQL's simple match). *)

val equal : t -> t -> bool
(** Set-semantics equality per table. *)

val pp : Format.formatter -> t -> unit
