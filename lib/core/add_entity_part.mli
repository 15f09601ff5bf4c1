(** The [AddEntityPart(E, E′, P, Γ)] SMO of Section 3.3: add an entity type
    whose instances are horizontally partitioned across several tables by
    client-side conditions (the Adult/Young and gender examples).  The
    [AddEntity(E, E′, α, P, T, f)] SMO of Section 3.1 is its one-partition
    case with ψ = [TRUE]: {!Engine} compiles both forms here, TPT as
    [α = (att(E) ∖ att(E′)) ∪ PK_E, P = E′] and TPC as [α = att(E),
    P = NIL].

    Preconditions: each αᵢ ⊆ att(E) holds the key of [E]; [P] is a proper
    ancestor of [E]; each column map passes {!Algo.check_column_map} into a
    fresh table ({!Algo.add_fresh_table}), and the tables are pairwise
    distinct.  Each ψᵢ may only mention attributes of [E] and compare them
    to values of their domains.  The paper's distinguishing step is
    implemented exactly: for every attribute of [E] not covered through the
    [P] reference, the disjunction of the ψᵢ of the partitions that project
    it — or force it to a constant ([A = c] consequences, which is how an
    unmapped [gender] column can still be covered over a closed M/F domain)
    — must be a tautology ({!Query.Cover.tautology}).  An attribute that no
    partition stores or fixes is reported by name.  An αᵢ may re-store
    attributes the hierarchy already holds.

    Views come from the Algorithm 1/2 surgery ({!Neighborhood.add_type}):
    [E]'s query view is the keyed full outer join of the partition tables,
    attributes stored in several partitions COALESCEd and constants
    re-materialized; only [E]'s neighborhood is touched.  Each partition's
    fragment is [IS OF E ∧ ψᵢ], and just [IS OF E] for ψᵢ = [TRUE].

    Validation (Section 3.1.4) aborts when an association of a type between
    [E] and [P] is stored in a table [E]'s entities leave
    ({!Algo.assoc_rows_keep_entities}), and otherwise returns one batch of
    containment obligations over the new update views: checks 1 and 2 on
    the types strictly between [E] and [P], then check 3, the foreign keys
    of each new table that meet f(αᵢ) (the AEP-np benchmarks of Fig. 9
    stress exactly this).  Like every SMO algorithm, [apply] proves nothing
    itself; {!Engine.apply} discharges the batch. *)

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
