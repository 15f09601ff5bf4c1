(** The [AddEntity(E, E′, α, P, T, f)] SMO of Section 3.1 — adding an entity
    type with the TPT/TPC family of mapping strategies, compiled
    incrementally:

    - query views by Algorithm 1 (join with [Q⁻_P] or plain table scan for
      [Q_E]; LEFT OUTER JOIN with a fresh provenance flag for the reflexive
      ancestors of [P]; padded UNION ALL for the types strictly between [E]
      and [P]);
    - update views by Algorithm 2 (padded view for [T]; the
      [IS OF (ONLY P)] widening; the [dp]/[chp] rewrite ruling [E] out of
      intermediate types);
    - fragment adaptation per Section 3.1.3 (Σ* plus φ_E);
    - validation per Section 3.1.4: it aborts when an association of a
      type between [E] and [P] is stored in a table [E]'s entities leave
      ({!Algo.assoc_rows_keep_entities}), and otherwise returns the
      association-endpoint and foreign-key containment checks over the new
      update views as its proof obligations.

    The three view phases are {!Neighborhood.add_type} with the one
    partition φ_E, the routine AddEntityPart runs over its partitions.

    TPT is [α = (att(E) ∖ att(E′)) ∪ PK_E, P = E′]; TPC is
    [α = att(E), P = NIL].

    Restriction (documented deviation): when [P ≠ NIL], the non-key part of
    [α] must consist of attributes new to the hierarchy.  Mappings that
    re-store inherited attributes under a strict ancestor reference require
    a full recompilation, which this compiler signals by aborting.

    Like every SMO algorithm, [apply] proves nothing itself: it returns the
    evolved state with the obligations that must hold for it, and
    {!Engine.apply} discharges them. *)

val apply :
  State.t ->
  entity:Edm.Entity_type.t ->
  alpha:string list ->
  p_ref:string option ->
  table:Relational.Table.t ->
  fmap:(string * string) list ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
