(** Store tables: columns with domains and nullability, a primary key, and
    foreign keys (Section 2 of the paper).

    The paper's incremental algorithms care about three table facts:
    which columns exist and their domains (for the [dom(A) ⊆ dom(f(A))]
    check), which columns are nullable (everything outside [f(α)] must be,
    for the padding in Algorithm 2), and which foreign keys leave the table
    (validation checks 1–3). *)

type column = { cname : string; domain : Datum.Domain.t; nullable : bool }

type foreign_key = {
  fk_columns : string list;       (** Referencing columns, in key order. *)
  ref_table : string;
  ref_columns : string list;      (** Referenced key columns, same order. *)
}

type t = {
  name : string;
  columns : column list;
  key : string list;              (** Primary-key columns, non-empty. *)
  fks : foreign_key list;
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val make :
  name:string -> key:string list -> ?fks:foreign_key list ->
  (string * Datum.Domain.t * [ `Null | `Not_null ]) list -> t
(** Convenience constructor; key columns must appear among the columns. *)

val column : t -> string -> column option
val column_names : t -> string list
val mem_column : t -> string -> bool
val domain_of : t -> string -> Datum.Domain.t option
val nullable : t -> string -> bool
(** [nullable t c] is false for unknown columns. *)

val non_key_columns : t -> string list
val add_column : t -> column -> t
val add_fk : t -> foreign_key -> t
