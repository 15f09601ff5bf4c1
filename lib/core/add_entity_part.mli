(** The [AddEntityPart(E, E′, P, Γ)] SMO of Section 3.3: add an entity type
    whose instances are horizontally partitioned across several tables by
    client-side conditions (the Adult/Young and gender examples).

    The paper's distinguishing validation step is implemented exactly: for
    every attribute of [E] not covered through the [P] reference, the
    disjunction of the ψᵢ of the partitions that project it — or force it to
    a constant ([A = c] consequences, which is how an unmapped [gender]
    column can still be covered over a closed M/F domain) — must be a
    tautology ({!Query.Cover.tautology}).  Foreign keys of the new tables
    are checked by containment (the AEP-np benchmarks of Fig. 9 stress
    exactly this: one check per partition table).

    Each ψᵢ may only mention attributes of [E] and compare them to values
    of their domains.  Views come from the Algorithm 1/2 surgery shared
    with AddEntity ({!Neighborhood.add_type}): [E]'s query view is the keyed
    full outer join of the partition tables, attributes stored in several
    partitions COALESCEd and constants re-materialized; only [E]'s
    neighborhood is touched.  The types strictly between [E] and [P]
    get AddEntity's association checks 1 and 2.  The containment checks are
    returned as obligations, for {!Engine.apply} to discharge. *)

type part = {
  part_alpha : string list;
  part_cond : Query.Cond.t;        (** ψᵢ — a satisfiable conjunction *)
  part_table : Relational.Table.t;
  part_fmap : (string * string) list;
}

val apply :
  State.t ->
  entity:Edm.Entity_type.t ->
  p_ref:string option ->
  parts:part list ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
