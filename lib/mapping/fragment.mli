(** Mapping fragments (Section 2.1): constraints of the form

    {v π_α(σ_ψ(E)) = π_β(σ_χ(R)) v}

    relating a project–select query over one client source (an entity set or
    an association set) to a project–select query over one store table.  The
    projections are aligned pairwise: [pairs] lists [(client attribute,
    store column)] correspondences, which must cover a key. *)

type client_source = Set of string | Assoc of string

type t = {
  client_source : client_source;
  client_cond : Query.Cond.t;              (** ψ — AND-OR of IS OF / null / comparison atoms *)
  pairs : (string * string) list;          (** α ↔ β, in order *)
  table : string;                          (** R *)
  store_cond : Query.Cond.t;               (** χ — no type atoms *)
}

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string

val describe : t -> string
(** One-line identification for error messages and diagnostics —
    [Set[ψ]{α} -> table[χ]{β}], with both conditions rendered through
    {!Query.Pretty.cond_string} (the renderer shared with [Fullc.Validate]
    and [Lint]). *)
val equal_client_source : client_source -> client_source -> bool

val entity : set:string -> cond:Query.Cond.t -> table:string ->
  ?store_cond:Query.Cond.t -> (string * string) list -> t
val assoc : assoc:string -> table:string -> ?store_cond:Query.Cond.t ->
  (string * string) list -> t

val attrs : t -> string list
(** α — the client-side projection, in order. *)

val cols : t -> string list
(** β — the store-side projection, in order. *)

val col_of : t -> string -> string option

val attr_of : t -> string -> string option
(** The attribute of the first pair with this column. *)

val mem_attr : t -> string -> bool
val mem_col : t -> string -> bool
(** Whether some pair has this attribute (column).  Like [attr_of], these
    read [pairs] in place and build no list. *)

(** {2 The two sides of [π_α σ_ψ(E) = π_β σ_χ(T)]}

    The store side read under client names is the fragment's piece of a
    query view, the client side written under store names its piece of an
    update view (Algorithms 1 and 2, Section 3.1).  An SMO's new views are
    its new fragments' sides; [Fullc] fuses a set's or a table's. *)

val client_side : t -> Query.Algebra.t
(** [σ_ψ(E)], with no σ when ψ is [TRUE] (every association fragment). *)

val store_side : t -> Query.Algebra.t
(** [σ_χ(T)], with no σ when χ is [TRUE]. *)

val store_query : t -> Query.Algebra.t
(** [π_{β AS α}(σ_χ(T))]: the store side under the client side's names. *)

val update_side : ?rename:(string -> string) -> ?table:Relational.Table.t -> t -> Query.Algebra.t
(** [π_{α AS β}(σ_ψ(E))], in [pairs] order, then the constants χ forces on
    columns outside β (a TPH discriminator), then, given the fragment's
    [table], [NULL] for each of its other columns, in column order.
    [rename] (default the identity) renames every output column: [Fullc]
    gives a table's non-key columns fragment-local names, AE-TPH its new
    branch's. *)

val holds : Query.Env.t -> Edm.Instance.t -> Relational.Instance.t -> t -> bool
(** Whether the pair of states satisfies the fragment equation (set
    semantics) — the building block of the mapping's semantics. *)

val well_formed : Query.Env.t -> t -> (unit, string) result
(** Sources and columns exist, projections are aligned and duplicate-free and
    cover the client key, ψ only mentions client attributes and types of the
    fragment's hierarchy, χ is type-free, and every paired column's domain
    subsumes its attribute's domain (for an association fragment, the domain
    of the endpoint key attribute the column carries). *)
