(** Dropping an association — the inverse of [AddAssocFK]/[AddAssocJT],
    completing the add/drop vocabulary Section 3.4 asks of an SMO set.

    The association's fragment disappears; its query view is removed; the
    update view of its table is regenerated from the remaining fragments
    by {!Algo.shrink} (for a key/foreign-key mapping the foreign-key column
    reverts to an unmapped NULL-padded column, and the drop is refused if
    that column is declared not null; a join table loses its view
    entirely).
    Dropping rows can only shrink foreign-key sources, but the touched
    table's foreign keys are re-checked for safety: their obligations are
    returned for {!Engine.apply} to discharge. *)

val apply :
  State.t -> assoc:string ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
