(** The [AddEntityTPH] SMO of Section 3.4: add an entity type whose data —
    all attributes, inherited ones included — is stored in the hierarchy's
    single table, identified by a fresh discriminator value.

    Query views: a select–project branch over [σ(d = v)(T)] is unioned into
    the view of each ancestor (with a provenance flag driving the CASE), and
    forms the new type's own view — {!Neighborhood.query_views} with
    [P = NIL].  Update views and fragments: conditions [IS OF E′] on the
    parent are narrowed to rule the new type out ({!Algo.rule_out}, the
    generalization of the paper's "change [IS OF E′] to [IS OF (ONLY E′)]"
    to parents with several children), and the new type's rows are merged
    into [T]'s update view by a keyed FULL OUTER JOIN.
    Validation: the discriminator region must be disjoint from every region
    already claimed on [T]; foreign keys touching the mapped columns and
    associations on ancestor types are re-checked by containment.  All of
    these are returned as one obligation batch, the overlap tests first,
    for {!Engine.apply} to discharge. *)

val apply :
  State.t ->
  entity:Edm.Entity_type.t ->
  table:string ->
  fmap:(string * string) list ->
  discriminator:string * Datum.Value.t ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
(** [fmap] maps all of [att(E)] to columns of the existing [table]. *)
