(** The data-loss (attribute coverage) test shared by both compilers.

    Section 3.3 of the paper: for every attribute [A] of an exact entity
    type, the disjunction of the client conditions of the fragments that
    either project [A] or force it to a constant must be a tautology —
    otherwise some entities of that type cannot be stored losslessly. *)

val attribute_coverage :
  Query.Env.t -> Fragments.t -> etype:string -> (unit, string) result

val determined_constants : Query.Cond.t -> (string * Datum.Value.t) list
(** Attribute/column values forced by equality conjuncts of a condition
    (e.g. [gender = 'M'], or a TPH discriminator on the store side). *)
