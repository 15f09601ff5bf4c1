(** Adding an association mapped to a new join table (the AA-JT primitive of
    Section 3.4 and the experiments) — the only way to map many-to-many
    associations.

    The join table's key must be the image of both endpoints' keys (m:n), or
    of the first endpoint's key alone when the second endpoint's
    multiplicity is at most one.  Validation checks the join table's foreign
    keys against the previous update views (the endpoints' keys must resolve
    wherever the foreign keys point): one obligation per foreign key,
    returned for {!Engine.apply} to discharge. *)

val apply :
  State.t ->
  assoc:Edm.Association.t ->
  table:Relational.Table.t ->
  fmap:(string * string) list ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
(** [fmap] maps the association's qualified key columns to columns of the
    (new) join table. *)
