(** Mapping-fragment sets Σ and the mapping [M ⊆ C × S] they specify
    (Section 2.1):

    {v M = { (c, s) | Q_C(c) = Q_S(s) for every Q_C = Q_S in Σ } v} *)

type t

val empty : t
val of_list : Fragment.t list -> t
val to_list : t -> Fragment.t list
val add : Fragment.t -> t -> t
val remove : Fragment.t -> t -> t
val size : t -> int

val on_table : t -> string -> Fragment.t list
val of_set : t -> string -> Fragment.t list
val of_assoc : t -> string -> Fragment.t list
val tables : t -> string list
(** Tables mentioned by at least one fragment — the tables that get update
    views. *)

val map : (Fragment.t -> Fragment.t) -> t -> t
(** Rewrite every fragment (fragment adaptation, Section 3.1.3). *)

val column_used : t -> table:string -> string -> bool
(** Whether any fragment maps client data into the given column — check 1 of
    [AddAssocFK] (Section 3.2). *)

val related : Query.Env.t -> Edm.Instance.t -> Relational.Instance.t -> t -> bool
(** Whether [(c, s) ∈ M] — every fragment equation holds on the pair. *)

val well_formed : Query.Env.t -> t -> (unit, string) result
(** All fragments well-formed, and every association set is mentioned by at
    most one fragment (the paper's standing assumption). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string
