(** What the mapping covers on both sides, shared by both compilers, lint
    and the SMOs.

    Client side, the data-loss (attribute coverage) test of Section 3.3: for
    every attribute [A] of an exact entity type, the disjunction of the
    client conditions of the fragments that either project [A] or force it
    to a constant must be a tautology — otherwise some entities of that type
    cannot be stored losslessly.

    Store side, the written columns: a row of a table gets a non-NULL value
    in a column only if some fragment writes it, so every non-nullable
    column must be written by a fragment of its table. *)

val attribute_coverage :
  Query.Env.t -> Fragments.t -> etype:string -> (unit, string) result

val determined_constants : Query.Cond.t -> (string * Datum.Value.t) list
(** Attribute/column values forced by equality conjuncts of a condition
    (e.g. [gender = 'M'], or a TPH discriminator on the store side). *)

val writes : Fragment.t -> string -> bool
(** Whether the fragment writes the store column: β pairs an attribute with
    it, or χ forces it to a constant (a TPH discriminator). *)

val unwritten_not_null : Fragment.t list -> Relational.Table.t -> string list
(** The non-nullable columns of the table, in column order, that none of
    the given fragments {!writes} — given the table's fragments, the columns
    the mapping would fill with NULL.  [Fullc.Validate] rejects a mapping
    with one, lint reports each as L002, and the SMOs refuse to leave one
    behind. *)
