(** Shared building blocks of the per-SMO incremental algorithms.

    Validation is split into two phases: the algorithms {e emit} proof
    obligations ([fk_obligations], [assoc_endpoint_obligations]) describing
    the containments that must hold and return them with the evolved state;
    {!Engine.apply} then proves each SMO's batch with
    {!Containment.Discharge.run}.  Structural problems (missing views,
    unmappable endpoints) are immediate errors, found before any proof
    runs; only the containment proofs are deferred. *)

val fail : ('a, Format.formatter, unit, ('b, Containment.Validation_error.t) result) format4 -> 'a
(** [Error] of a plain-message {!Containment.Validation_error.t}. *)

val lift : ('a, string) result -> ('a, Containment.Validation_error.t) result
(** Adapt a string-errored result (e.g. from {!Mapping.Views}) into the
    validation error monad. *)

(** {1 The column map of the additive SMOs}

    Every additive SMO (AddEntity, AddEntityPart, AddEntityTPH, AddAssocFK,
    AddAssocJT, AddProperty) stores the attributes it adds through a column
    map [f] into a table [T], under the same side conditions (Section 3).
    Checks only one SMO has stay in that SMO. *)

val check_column_map :
  attrs:(string * Datum.Domain.t) list -> keys:string list list -> Relational.Table.t ->
  (string * string) list -> (unit, Containment.Validation_error.t) result
(** [check_column_map ~attrs ~keys t f] checks, in this order, that [f]
    maps exactly the attributes of [attrs] (α, αᵢ, att(E), both endpoints'
    qualified key columns, or key plus the new property); that it is
    one-to-one; that every column it targets exists in [t]; that [f] maps
    one of [keys] onto the key of [t] — the entity key, f(PK₁) for
    AddAssocFK, f(PK₁ ∪ PK₂) or (for an at-most-one second endpoint) f(PK₁)
    for AddAssocJT; and that dom(a) ⊆ dom(f(a)) for the domain [attrs] gives
    each attribute.  Each failure names the offending attribute, column or
    table. *)

val add_fresh_table :
  Mapping.Fragments.t -> Relational.Schema.t -> Relational.Table.t ->
  (string * string) list -> (Relational.Schema.t, Containment.Validation_error.t) result
(** The extra rules for a column map [f] into a new table [t]: every column
    of [t] outside the image of [f] is nullable, and [t] is either absent
    from the store (and is added to it) or identical to the store's table
    of that name and not yet mentioned by the fragments. *)

val tag_for : string -> string
(** The fresh provenance attribute [t_E] of Algorithm 1, derived from the
    new entity type's name. *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Phase marker for the SMO algorithms: an [Obs.Span.with_] with the
    argument order flipped for partial application.  Free when collection is
    disabled. *)

val widen_only_p : p:string -> e:string -> Query.Cond.t -> Query.Cond.t
(** Algorithm 2, lines 7–9: replace [IS OF (ONLY P)] by
    [IS OF (ONLY P) ∨ IS OF E]. *)

val rule_out : Edm.Schema.t -> between:string list -> e:string -> Query.Cond.t -> Query.Cond.t
(** Algorithm 2, lines 10–16: for every [F] in [between] (proper ancestors of
    [E] strictly below [P]), replace [IS OF F] by the disjunction over
    [dp(F)] and [chp(F′)] that rules out entities of type [E]. *)

val adapt_cond :
  Edm.Schema.t -> p_ref:string option -> between:string list -> e:string ->
  Query.Cond.t -> Query.Cond.t
(** Both rewrites, as applied to update views (Algorithm 2) and to the
    previous fragments Σ⁻ (Section 3.1.3). *)

(** {2 Adaptation visits only the neighborhood}

    [adapt_cond] changes only [IS OF F] atoms for [F] in [between] and
    [IS OF (ONLY P)] atoms, and {!Add_entity_tph}'s narrowing only
    [IS OF parent] atoms.  So the adapters below take those types [types]
    and visit only the fragments whose client condition names one of them
    ({!Mapping.Fragments.naming}), and the update views of those fragments'
    tables: an update view names no type that no fragment on its table
    names (DESIGN §2).  Each tags the innermost open span with what it
    visited, [fragments_visited] and [views_visited]. *)

val adapt_fragments :
  types:string list -> (Query.Cond.t -> Query.Cond.t) -> Mapping.Fragments.t ->
  Mapping.Fragments.t
(** Rewrite the client condition of every fragment that names one of
    [types]; a fragment the rewrite leaves alone stays physically the same,
    and so do the fragments when it leaves every one alone. *)

val adapt_update_views :
  Mapping.Fragments.t -> types:string list -> (Query.Cond.t -> Query.Cond.t) ->
  Query.View.update_views -> Query.View.update_views
(** [adapt_update_views frags ~types rewrite uv] rewrites every selection
    condition ({!Query.Algebra.map_conditions}) of the update views of the
    tables of [frags]' fragments that name one of [types]; a view the
    rewrite leaves alone stays physically the same. *)

val not_null_conj : string list -> Query.Cond.t

val fk_obligations :
  Query.Env.t -> Query.View.update_views -> table:string ->
  Relational.Table.foreign_key ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** The obligation for one foreign-key preservation test over update views
    (SQL simple-match semantics: null references are exempt).  A missing
    update view is an immediate structural error. *)

val assoc_endpoint_obligations :
  Query.Env.t -> Mapping.Fragments.t -> Query.View.update_views -> etypes:string list ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** Obligations for check 1 of Section 3.1.4, for every association having
    one of the given types as an endpoint: the association's endpoint keys
    must still be storable in the table its fragment maps to, under the
    {e new} update views. *)

val assoc_rows_keep_entities :
  Query.Env.t -> Mapping.Fragments.t -> e:string -> etypes:string list ->
  (unit, Containment.Validation_error.t) result
(** The Fig. 6 shape with the association inside the endpoint's own table:
    an association with an endpoint in [etypes] whose fragment stores its
    rows under the endpoint key's columns of a table that holds the
    endpoint's entities, where no fragment of the table holds entities of
    the new type [e] any more.  An association row of an [e] entity would
    then be a row no entity accounts for, so the SMO aborts.  A structural
    check: it emits no obligation. *)

(** {2 What an SMO rebuilds and re-proves}

    An SMO rebuilds the update views of exactly the tables whose fragments
    it added, removed or changed, and re-proves exactly the foreign keys of
    those tables that meet the columns it changed (DESIGN §2). *)

val image_fk_obligations :
  Query.Env.t -> Mapping.Fragments.t -> Query.View.update_views -> table:string ->
  columns:string list ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** [image_fk_obligations env frags uv ~table ~columns]: the
    {!fk_obligations} under [uv] of each foreign key of [table] that meets
    [columns], the columns the SMO changed, and whose every column some
    fragment of [table] in [frags] writes ({!Mapping.Coverage.writes}).  A
    foreign key that meets none of [columns] keeps its proof; one with a
    column no fragment writes holds, since that column is NULL in every row
    of the update view and simple match exempts the row. *)

val assoc_table_fk_obligations :
  Query.Env.t -> Mapping.Fragments.t -> Query.View.update_views -> etypes:string list ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** Obligations for check 2 of Section 3.1.4, for every association having
    one of the given types as an endpoint: the {!image_fk_obligations} of
    the association fragment's table over the fragment's columns, under the
    new update views. *)

val shrink :
  State.t -> Query.Env.t -> Mapping.Fragments.t -> Query.View.query_views ->
  set:string option -> tables:string list ->
  (State.t, Containment.Validation_error.t) result
(** [shrink before env frags qv ~set ~tables]: the view step of the SMOs
    that shrink the mapping, given the shrunken schemas, fragments and
    query views, the entity set whose query views regenerate, if any, and
    the tables of the fragments the SMO removed or replaced.  Of those
    tables, each that no fragment of [frags] maps loses its update view;
    for each other, a non-nullable column that no fragment writes
    ({!Mapping.Coverage.unwritten_not_null}) is an immediate error naming
    the table and the column, and otherwise its update view rebuilds with
    {!Mapping.Views.for_table}, the generator the full compiler builds
    every update view with (the paper gives no view-surgery recipe for a
    drop).  Every other update view stays physically the same:
    [for_table] reads only the table and its fragments, so it is the view
    a rebuild would make.  [set]'s query views regenerate with
    {!Mapping.Views.for_set}.  The span is tagged
    [views_visited] with the number of update views rebuilt or removed.  It
    emits no obligation: each SMO emits those its change can break. *)
