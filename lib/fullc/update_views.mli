(** Full-compilation update-view generation.

    Per mapped table, the client-side queries of its fragments (entities
    selected by ψ, association sets) are fused with FULL OUTER JOINs on the
    table key; per-fragment column images merge with COALESCE; store-side
    discriminator constants forced by the fragments' χ conditions (TPH) are
    emitted as constants; unmapped nullable columns pad with NULL. *)

val for_table :
  ?optimize:bool ->
  Query.Env.t -> Mapping.Fragments.t -> table:string -> (Query.Algebra.t, string) result
(** Fails when the table has no fragments, or some fragment does not map the
    table's full primary key. *)

val all :
  ?optimize:bool ->
  Query.Env.t -> Mapping.Fragments.t -> (Query.View.update_views, string) result
(** One update view per table mentioned in the fragments. *)
