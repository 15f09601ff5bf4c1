(** The [DropEntity] SMO of Section 3.4, restricted to leaf types that are
    no association endpoints (dropping an inner type requires replacing its
    references by expressions over its descendants, which the paper defers
    and we reject).

    Fragment adaptation inverts Σ*: [IS OF E] / [IS OF (ONLY E)] atoms
    become [FALSE] and fragments whose condition collapses are removed —
    e.g. [IS OF (ONLY P) ∨ IS OF E] reverts to [IS OF (ONLY P)].  Tables
    that lose all their fragments lose their update views (the tables
    themselves stay in the store; dropping data is not the compiler's
    call).  Views of the affected entity set are regenerated from its
    remaining fragments — the neighborhood — and the touched tables'
    foreign keys are re-checked ({!Algo.shrink}): their obligations are
    returned for {!Engine.apply} to discharge. *)

val apply :
  State.t -> etype:string ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
