(** View generation from fragments, below both compilers.

    The full compiler (the paper's Section 2.2 baseline) builds every view
    here; the incremental compiler builds here only what the paper gives no
    view-surgery recipe for: the store side of a partitioned new type
    (AddEntityPart, Section 3.3) and the views a shrinking SMO rebuilds
    from the fragments it leaves.

    A set's query view, a table's update view and a partitioned type's
    store side share one shape, the {e fused} view: one branch per
    fragment, its non-key columns under fragment-local names, combined by a
    left-deep FULL OUTER JOIN chain on a key, then one projection that
    reads each key column as is and fuses each other column from the
    fragments that supply it (the single source renamed, the COALESCE of
    several, [NULL] when there is none).

    With [?optimize] (default false) the chain is instead the Section-6
    rewrite ("leverage schema constraints to reduce costly operations like
    full outer joins into cheaper operations, such as UNION ALL and left
    outer joins"), decided fragment by fragment with the {!Query.Cover}
    procedure over client conditions and applied greedily in branch
    order: a branch whose client region is disjoint from every other
    branch's (TPC tables, TPH discriminator regions, AddEntityPart ranges)
    moves to a padded UNION ALL after the join tree; a branch whose region
    is contained in some already-placed branch's (a TPT child below its
    parent, an association anchored on an entity fragment of the same
    table) weakens its FULL OUTER JOIN to a LEFT OUTER JOIN.  The output
    columns are exactly those of the chain, so the projection and
    constructor are untouched; equivalence is property-tested against the
    unoptimized views.  The rewrite is traced as [fullc.optimize]. *)

val same_set : Fragment.t -> Fragment.t -> bool
(** Both fragments map one entity set. *)

val for_set :
  ?optimize:bool ->
  Query.Env.t -> Fragments.t -> set:string ->
  ((string * Query.View.t) list, string) result
(** The query views of every concrete type of the set's hierarchy, root
    first: the route the paper attributes to Entity Framework's compiler
    (Section 6, the shape of Fig. 2).  The fused view of the set's
    fragments, each branch carrying its provenance flag, is the root's
    view; a derived type's filters it by the membership guard of its
    subtree; the constructor is a CASE over the flags choosing the most
    specific type.  Fails when two covered types get the same guard: the
    store could not tell their entities apart, and every such entity would
    read back as one of the two.  Traced as [query-views.set]. *)

val for_assoc : Fragments.t -> assoc:string -> (Query.Algebra.t, string) result
(** The store query of the association's one fragment. *)

val for_table :
  ?optimize:bool ->
  Query.Env.t -> Fragments.t -> table:string -> (Query.Algebra.t, string) result
(** The update view of a table: the fused view of its fragments' update
    sides, a column supplied by the fragments that {!Coverage.writes} it
    (χ's discriminator constants included), an unwritten one padded with
    [NULL].  Reads only the table and its fragments.  Fails when the table
    has no fragments, or some fragment does not map the table's full
    primary key.  Traced as [update-views.table]. *)

val store_projection :
  key:string list -> ?keep:(string -> bool) -> ?index:int -> ?tag:string ->
  Fragment.t -> Query.Algebra.t
(** The store query of one entity fragment: its table (selected by its
    store condition), the [key] attributes under their own names, every
    other mapped attribute, then the constants its client condition
    determines for attributes it does not map (Section 3.3's gender
    example), and with [?tag] the provenance flag [tag = TRUE].  With
    [?index:i] the non-key attributes take the fragment-local names a
    fused view reads; without it they keep their own names.  [?keep]
    (default: all) restricts the non-key attributes projected. *)

val fused_store_query :
  Query.Env.t -> key:string list -> keep:(string -> bool) -> Fragment.t list -> string list ->
  Query.Algebra.t
(** [fused_store_query env ~key ~keep frags columns]: the fused view of the
    fragments' [store_projection ~keep], projected on [columns], each fused
    from the fragments that map it or whose client condition determines
    it — AddEntityPart's store side of a new type stored in several
    partitions. *)

val stats : Query.Algebra.t -> int * int * int
(** (full outer joins, left outer joins, unions) in a query — the
    optimizer's ablation metric. *)
