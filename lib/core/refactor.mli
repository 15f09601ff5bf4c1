(** The [Refactor] SMO of Section 3.4: turn a 1 – 0..1 association between
    [E1] and [E2] into an inheritance relationship — [E2] becomes a derived
    type of [E1], absorbing [E1]'s attributes; an entity of the new [E2]
    merges the attribute values of a formerly associated pair.

    Mapping surgery: the association fragment disappears; [E2]'s fragments
    move into [E1]'s entity set, keyed by the inherited key through the
    columns that previously stored the association ([f(PK₁)] in [E2]'s
    table); [IS OF (ONLY E1)] conditions widen to admit the new subtype
    (Σ*-style, {!Algo.adapt_fragments}).  The query views of the merged
    hierarchy regenerate from the adapted fragments, and the update views
    of the subtree's table and of the widened fragments' tables rebuild
    (the neighborhood); coverage
    of the reparented subtree is re-validated, and every foreign key of the
    subtree's table is returned as an obligation for {!Engine.apply} to
    discharge: the merged hierarchy has client states the old schema had
    not.

    Supported shape (the common one): [E2] is a hierarchy root whose subtree
    maps entirely to tables carrying the association's f(PK₁) image, with
    the association mapped FK-style into [E2]'s table. *)

val apply :
  State.t -> assoc:string ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
