(** Mapping-fragment sets Σ and the mapping [M ⊆ C × S] they specify
    (Section 2.1):

    {v M = { (c, s) | Q_C(c) = Q_S(s) for every Q_C = Q_S in Σ } v} *)

(** {2 The container}

    A persistent set of fragments in document order (the order of
    {!of_list}'s list, then of {!add}), which {!to_list}, [.imcs] documents
    and the surface syntax keep.  Besides the order it keeps three indexes:
    the fragments by table, by client source (entity or association set)
    and by each entity type their client condition names in an [IS OF] or
    [IS OF ONLY] atom.  So {!on_table}, {!of_set}, {!of_assoc},
    {!column_used} and {!naming} cost their result, not the mapping.

    {!of_list} builds each index as arrays sorted by key, with one merge
    sort: loading a state allocates no tree node for them (about 0.04 MB
    for the 270 customer fragments).  {!add}, {!remove} and {!replace}
    record what they change in persistent maps that shadow those arrays,
    so an edit costs the logarithm of the edits before it, copies the ids
    under the keys it touches, and copies neither the list of fragments
    nor an index. *)

type t

val empty : t
val of_list : Fragment.t list -> t
val to_list : t -> Fragment.t list
val add : Fragment.t -> t -> t
(** After every other fragment. *)

val remove : Fragment.t -> t -> t
(** Every fragment {!Fragment.equal} to the given one. *)

val replace : Fragment.t -> Fragment.t -> t -> t
(** [replace old f t] puts [f] in the place of [old], a fragment of [t]
    (physically); [t] itself when [f == old].  Raises [Invalid_argument]
    when [old] is not in [t]. *)

val size : t -> int

val on_table : t -> string -> Fragment.t list
val of_set : t -> string -> Fragment.t list
val of_assoc : t -> string -> Fragment.t list
(** In document order, as every lookup below. *)

val assoc_fragment : t -> string -> (Fragment.t, string) result
(** The one fragment of an association set; an error when it has none or
    several. *)

val tables : t -> string list
(** Tables mentioned by at least one fragment — the tables that get update
    views — ascending. *)

val naming : t -> string list -> Fragment.t list
(** The fragments whose client condition names one of the given types in
    an [IS OF] or [IS OF ONLY] atom, each once: the fragments a rewrite of
    those atoms (Algorithm 2's, Section 3.1.3) can change. *)

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
