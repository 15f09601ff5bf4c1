(** The [DropEntity] SMO of Section 3.4, restricted to leaf types that are
    no association endpoints (dropping an inner type requires replacing its
    references by expressions over its descendants, which the paper defers
    and we reject).

    Fragment adaptation inverts Σ*: [IS OF E] / [IS OF (ONLY E)] atoms
    become [FALSE] and fragments whose condition collapses are removed —
    e.g. [IS OF (ONLY P) ∨ IS OF E] reverts to [IS OF (ONLY P)].  Tables
    that lose all their fragments lose their update views (the tables
    themselves stay in the store; dropping data is not the compiler's
    call).  The query views of the affected entity set regenerate from its
    remaining fragments, and only the update views of the changed
    fragments' tables rebuild — the neighborhood — by {!Algo.shrink}.  No
    obligation is emitted: every client state of the new schema is one of
    the old, on which each fragment condition holds as before, so every
    update view yields the rows it did and every foreign key proven before
    still holds (DESIGN §2). *)

val apply : State.t -> etype:string -> (State.t, Containment.Validation_error.t) result
