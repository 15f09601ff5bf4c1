(** The [AddAssocFK(A, E1, E2, mult, T, f)] SMO of Section 3.2 — adding an
    association mapped onto a key/foreign-key column pair of an existing
    table.

    Validation checks 1–3 of the paper: the [f(PK₂)] columns must be fresh
    to the mapping; every [E1] entity's key must be storable in [T]'s key
    (containment against the previous update view); and an existing foreign
    key out of [f(PK₂)] must keep resolving.  Checks 2 and 3 are returned
    as proof obligations, for {!Engine.apply} to discharge as one batch.
    The new mapping fragment is
    [π(A) = π(σ f(PK₂) IS NOT NULL (T))]; the association query view selects
    the non-null rows of [T]; [T]'s update view is rebuilt as the previous
    view (minus [f(PK₂)]) left-outer-joined with the association set. *)

val apply :
  State.t ->
  assoc:Edm.Association.t ->
  table:string ->
  fmap:(string * string) list ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
(** [fmap] maps the association's qualified key columns (e.g.
    ["Customer.Id"], ["Employee.Id"]) to columns of [table]. *)
