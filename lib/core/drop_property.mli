(** Dropping an attribute of an existing entity type — the inverse of
    [AddProperty].

    Preconditions: the attribute is declared (not inherited) and non-key,
    and no fragment's client condition tests it (partitioned mappings keyed
    on the attribute cannot lose it).  Fragments projecting the attribute
    lose the pair.  A fragment left projecting only key attributes is
    removed only when another fragment with the same source, conditions
    and table still maps those columns; otherwise it stays, because it
    alone may tell the type's entities apart (a TPT type's own table).
    When the surgery removes a fragment, the coverage of every concrete type
    of the hierarchy is re-checked; a kept fragment loses only the
    attribute's pair, which uncovers no other attribute (DESIGN §2).  The
    query views of the affected set regenerate from the adapted fragments,
    and the update views of the changed fragments' tables rebuild (the
    neighborhood), through {!Algo.shrink}, which refuses the drop when it
    leaves a non-nullable column unwritten.  No obligation is emitted: the
    drop only turns non-key columns NULL, simple-match foreign keys exempt
    NULL references, and a foreign key can reference only a key. *)

val apply :
  State.t -> etype:string -> attr:string -> (State.t, Containment.Validation_error.t) result
