(** Full-compilation query-view generation.

    The generic route the paper attributes to Entity Framework's compiler
    (Section 6): the per-fragment store queries of an entity set are fused
    with FULL OUTER JOINs on the hierarchy key, per-fragment columns are
    merged with COALESCE, provenance flags track which fragments contributed
    to a row, and the constructor is a CASE over those flags choosing the
    most specific entity type (the shape of Fig. 2, before the incremental
    compiler's direct LOJ/UNION-ALL optimizations).

    One view is produced per entity {e type} — the root type's view doubles
    as the entity-set view; a derived type's view filters the set view by the
    membership guard of its subtree. *)

val for_set :
  ?optimize:bool ->
  Query.Env.t -> Mapping.Fragments.t -> set:string ->
  ((string * Query.View.t) list, string) result
(** Views for every concrete type of the set's hierarchy, root first.
    [?optimize] (default false) applies the Section-6 FOJ-to-LOJ/UNION
    rewrites of {!Optimize}.  Fails when two covered types get the same
    provenance guard: the store could not tell their entities apart, and
    every such entity would read back as one of the two. *)

val all :
  ?optimize:bool ->
  Query.Env.t -> Mapping.Fragments.t -> (Query.View.query_views, string) result
(** Views for every entity type and association set of the client schema.
    Fails when a set or association has no mapping fragments. *)

(** {1 Building blocks shared with the incremental compiler}

    AddEntity and AddEntityPart (Sections 3.1 and 3.3) build the new type's
    store side from the same per-fragment projections the full compiler
    fuses. *)

val store_projection :
  key:string list -> ?keep:(string -> bool) -> ?index:int -> ?tag:string ->
  Mapping.Fragment.t -> Query.Algebra.t
(** The store query of one entity fragment: its table (selected by its
    store condition), the [key] attributes under their own names, every
    other mapped attribute, then the constants its client condition
    determines for attributes it does not map (Section 3.3's gender
    example), and with [?tag] the provenance flag [tag = TRUE].  With
    [?index:i] the non-key attributes take the fragment-local names that
    {!fused_item} reads; without it they keep their own names.  [?keep]
    (default: all) restricts the non-key attributes projected. *)

val fused_item : (int * Mapping.Fragment.t) list -> string -> Query.Algebra.proj_item
(** The column of attribute [a] over the full outer join of the indexed
    fragments' [store_projection ~index:i]: the single source renamed, the
    COALESCE of several, or [NULL] when no fragment stores or determines
    [a]. *)
