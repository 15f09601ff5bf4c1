(** Dropping an attribute of an existing entity type — the inverse of
    [AddProperty].

    Preconditions: the attribute is declared (not inherited) and non-key,
    and no fragment's client condition tests it (partitioned mappings keyed
    on the attribute cannot lose it).  Fragments projecting the attribute
    lose the pair.  A fragment left projecting only key attributes is
    removed only when another fragment with the same source, conditions
    and table still maps those columns; otherwise it stays, because it
    alone may tell the type's entities apart (a TPT type's own table).
    Views of the affected set regenerate from the adapted fragments (the
    neighborhood), and the surviving coverage of every concrete type is
    re-checked — dropping an attribute can never lose {e other} data, but
    the checks guard the fragment surgery itself. *)

val apply :
  State.t -> etype:string -> attr:string -> (State.t, Containment.Validation_error.t) result
