(** Full mapping validation — Algorithm 1 of Melnik et al. [13], as the
    paper recounts it in Section 1.2:

    (1) the left sides of the mapping fragments are one-to-one: decided over
    the store-side {e cell partitioning} of every table (the exponential
    enumeration of {!Cells}), rejecting cells in which two fragments of the
    same entity set write incompatible data to shared columns;

    (2)–(4) update views preserve integrity constraints: attribute coverage
    per concrete type (no client data loss — the Section 3.3 tautology
    test), nullability of unmapped columns, and per foreign key one
    query-containment check for each fragment writing its columns: that
    fragment's client query, renamed to the referenced columns, must be
    contained in the union of the client queries of the referenced table's
    fragments (checking over the fused update views instead would make the
    containment normalization exponential);

    (5) the composition of mapping and update views is the identity — by
    construction of the generated views given (1)–(4), and verified
    empirically by the instance-level roundtrip harness in the test suite
    (symbolic identity checking over the fused FOJ views would require exact
    outer-join containment, which the checker deliberately approximates).

    Failure of any step aborts compilation, as in the paper. *)

type report = {
  cells_visited : int;         (** total cells enumerated across tables *)
  containment_checks : int;    (** foreign-key containment tests run *)
  covered_types : int;         (** concrete types whose attributes all map *)
}

val run : Query.Env.t -> Mapping.Fragments.t -> (report, string) result
(** Steps 1–4 in order; the foreign-key obligations of step 4 are proven as
    one {!Containment.Discharge.run} batch. *)

val fk_obligations :
  Query.Env.t -> Mapping.Fragments.t -> (Containment.Obligation.t list, string) result
(** The foreign-key containment obligations of step 4, one per
    (foreign key, writing fragment) pair, without discharging them —
    exported so harnesses can batch obligations across whole models. *)
