(** Batch discharge engine for {!Obligation} values.

    Phase 2 of the two-phase validation pipeline: SMO algorithms and the full
    compiler {e emit} obligation batches ({!Obligation.t} lists), and
    [Core.Engine] and [Fullc.Validate] hand each batch here to be proven.

    First-failure rule: the calling domain proves a batch in emission order
    and stops at the first obligation that fails, so the failure reported is
    the first in emission order and no later obligation is proven.  The
    batch normalizes each distinct superset side once: it keeps one memo of
    {!Check.superset}, keyed by the obligation's schemas ([==]) and its
    [rhs] ([Query.Algebra.equal]). *)

val run : Obligation.t list -> (unit, Validation_error.t) result
(** [run obls] discharges the obligations with {!Check.subset}, in order,
    up to the first failure.  Each call adds 1 to the ["discharge.batches"]
    counter and is wrapped in a ["discharge.batch"] span tagged with the
    batch size ([obligations]). *)
