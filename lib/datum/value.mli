(** Runtime values, including SQL-style [Null].

    Values populate rows of store tables, attribute records of entities, and
    constant casts inside views (e.g. [CAST (NULL AS nvarchar) AS BillAddr]
    or [True AS _from2] in Fig. 2 of the paper). *)

type t =
  | Null
  | Int of int
  | String of string
  | Bool of bool
  | Decimal of float

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val show : t -> string

val is_null : t -> bool

val hash : t -> int
(** A hash consistent with {!compare}: values that compare equal hash
    equal.  An [Int] hashes without a call into the runtime. *)

module Map : Map.S with type key = t
(** Maps keyed under {!compare}. *)

val member : t -> Domain.t -> bool
(** [member v d] holds when [v] is [Null] or a value of domain [d] (modulo
    the [Int] into [Decimal] embedding). *)

val to_literal : t -> string
(** SQL-ish literal rendering: strings quoted, booleans [True]/[False],
    [NULL] for null. *)
