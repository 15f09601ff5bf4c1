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

val of_domain : Domain.t -> t -> t
(** [of_domain d v] is [v] as a value of [d]: an [Int] in [Decimal] becomes
    the equal [Decimal], every other value is [v] itself.  {!compare} orders
    every [Int] below every [Decimal], so a literal compared with or stored
    in a [Decimal] attribute or column must be a [Decimal] to be ordered by
    its value. *)

val decimal : float -> string
(** The fewest significant digits that read back as the finite float, with
    a decimal point or an exponent, so a reader tells it from an [Int]:
    [1.0] prints as ["1.0"] and [1.0000001] as ["1.0000001"]. *)

val to_literal : t -> string
(** SQL-ish literal rendering: strings quoted, booleans [True]/[False],
    [NULL] for null, a [Decimal] by {!decimal}. *)
