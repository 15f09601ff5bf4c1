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
(** Adapt a string-errored result (e.g. from [Fullc]) into the validation
    error monad. *)

val all_ok : ('a -> (unit, 'e) result) -> 'a list -> (unit, 'e) result

val collect :
  ('a -> ('b list, 'e) result) -> 'a list -> ('b list, 'e) result
(** Concatenate the lists emitted per item, preserving emission order (the
    order {!Containment.Discharge.run} reports the first failure in). *)

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

val align_union : Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> Query.Algebra.t
(** UNION ALL after padding each side's missing columns with [NULL] — how
    Algorithm 1's line 18 (and Fig. 2) reconciles branches with different
    column sets. *)

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

val adapt_fragments : (Query.Cond.t -> Query.Cond.t) -> Mapping.Fragments.t -> Mapping.Fragments.t
(** Rewrite every fragment's client condition; a fragment the rewrite leaves
    alone stays physically the same. *)

val adapt_update_views :
  (Query.Cond.t -> Query.Cond.t) -> Query.View.update_views -> Query.View.update_views
(** Rewrite every selection condition of the update views
    ({!Query.Algebra.map_conditions}); a view the rewrite leaves alone stays
    physically the same. *)

val not_null_conj : string list -> Query.Cond.t

val fk_obligations :
  Query.Env.t -> Query.View.update_views -> table:string ->
  Relational.Table.foreign_key ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** The obligation for one foreign-key preservation test over update views
    (SQL simple-match semantics: null references are exempt).  A missing
    update view is an immediate structural error. *)

val recheck_fks :
  Query.Env.t -> Query.View.update_views -> string list ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** [recheck_fks env uv tables]: the {!fk_obligations} of every foreign key
    of the given store tables whose two ends both have an update view in
    [uv], in table order — the safety re-check of the SMOs that regenerate
    a table's update view (DropEntity, DropAssociation, Refactor). *)

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

val assoc_table_fk_obligations :
  Query.Env.t -> Mapping.Fragments.t -> Query.View.update_views -> etypes:string list ->
  (Containment.Obligation.t list, Containment.Validation_error.t) result
(** Obligations for check 2 of Section 3.1.4, for every association having
    one of the given types as an endpoint: each foreign key of the table
    the association maps to that shares a column with the association's
    image must still hold under the new update views. *)

val drop_orphaned_views :
  before:Mapping.Fragments.t -> Mapping.Fragments.t -> Query.View.update_views ->
  Query.View.update_views
(** [drop_orphaned_views ~before frags uv] removes from [uv] the update view
    of every table that a fragment of [before] mentions and no fragment of
    [frags] does: the tables a DropEntity, DropProperty or DropAssociation
    left without a fragment. *)

val recompile_set :
  Query.Env.t -> Mapping.Fragments.t -> set:string -> State.t ->
  (State.t, Containment.Validation_error.t) result
(** Neighborhood recompilation: regenerate the query views of one entity
    set's hierarchy with the full compiler's [Fullc.Query_views.for_set],
    and the update views of the tables its fragments touch, leaving every
    other view untouched.  Used by the SMOs for which the paper gives no
    view-surgery recipe: DropEntity, DropProperty and Refactor.  AddEntity
    and AddEntityPart patch their neighborhood instead
    ({!Neighborhood.add_type}); their tests keep this function as the
    oracle the patched views are compared against. *)
