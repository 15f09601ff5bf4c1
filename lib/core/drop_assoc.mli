(** Dropping an association — the inverse of [AddAssocFK]/[AddAssocJT],
    completing the add/drop vocabulary Section 3.4 asks of an SMO set.

    The association's fragment disappears; its query view is removed; the
    update view of its table, and no other, is rebuilt from the remaining
    fragments by {!Algo.shrink} (for a key/foreign-key mapping the foreign-key column
    reverts to an unmapped NULL-padded column, and the drop is refused if
    that column is declared not null; a join table loses its view
    entirely).
    The foreign keys of that table over a column the fragment wrote, each
    of whose columns a remaining fragment writes, are returned as
    obligations for {!Engine.apply} to discharge
    ({!Algo.image_fk_obligations}: a column no fragment writes is NULL in
    every row, which simple match exempts); the table's other columns keep their
    values, and the proofs of its other keys read no multiplicity, so they
    covered states without the association's links already (DESIGN §2). *)

val apply :
  State.t -> assoc:string ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
