(** Batch discharge engine for {!Obligation} values.

    Phase 2 of the two-phase validation pipeline: SMO algorithms and the full
    compiler {e emit} obligation batches ({!Obligation.t} lists), and
    [Core.Engine] and [Fullc.Validate] hand each batch here to be proven.

    First-failure rule: the calling domain proves a batch in emission order
    and stops at the first obligation that fails, so the failure reported is
    the first in emission order and no later obligation is proven.

    Per schemas ([==]) a batch keeps one numbering of the client's types
    ({!Nf.Types.t}) that all its checks share, and normalizes each distinct
    superset side once: a memo of its simplification and {!Check.superset},
    keyed by the obligation's [rhs] ([Query.Algebra.equal]).  Both sides
    are simplified by one [Query.Simplify.query] per schemas, whose memo
    rewrites each subterm the batch's sides share (the views they restate)
    once; it simplifies each obligation's [lhs] once, and proves each distinct pair of
    simplified sides once: a verdict depends on nothing else, and an
    obligation whose pair an earlier one proved is proven without a check.
    Since a batch stops at its first failure, only proven pairs repeat. *)

val run : Obligation.t list -> (unit, Validation_error.t) result
(** [run obls] discharges the obligations with {!Check.prove}, in order,
    up to the first failure.  An obligation whose raw [lhs] or [rhs] is
    ill-typed fails before it is simplified: its error carries the
    obligation's name and {!Query.Algebra.infer}'s message, since no proof
    over an ill-typed view means anything.  A normalization error fails it
    as "not proven", with its own message.  Each call adds 1 to the
    ["discharge.batches"] counter and is wrapped in a ["discharge.batch"]
    span tagged with the batch size ([obligations]); every obligation, a
    repeated one included, opens its ["containment.obligation"] span, and
    only a check adds to ["containment.checks"]. *)
