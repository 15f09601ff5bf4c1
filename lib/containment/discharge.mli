(** Batch discharge engine for {!Obligation} values.

    Phase 2 of the two-phase validation pipeline: SMO algorithms and the full
    compiler {e emit} obligation batches ({!Obligation.t} lists), and
    [Core.Engine] and [Fullc.Validate] hand each batch here to be proven.

    Determinism guarantee: for any [jobs], [run] returns the same verdict,
    and on failure reports the {e first} failing obligation in emission
    order (the workers track the minimum failing index).  {!Check.subset}
    keeps no mutable state, so workers share nothing but the obligation
    list.  Each worker normalizes each distinct superset side of the batch
    once: it keeps its own memo of {!Check.superset}, keyed by the
    obligation's schemas ([==]) and its [rhs] ([Query.Algebra.equal]). *)

val run : ?jobs:int -> Obligation.t list -> (unit, Validation_error.t) result
(** [run ?jobs obls] discharges every obligation with {!Check.subset}.
    [jobs] defaults to 1; nothing reads it from the environment.  Every
    batch runs the same worker loop.  [jobs] is a {e cap} on the worker
    count: the engine never uses more workers than obligations or than
    [Domain.recommended_domain_count ()] (oversubscribing a machine's cores
    can only lose wall-clock, and by the determinism guarantee the worker
    count is unobservable in the result).  The calling domain always joins
    the work, so [workers - 1] domains are spawned, none for [jobs <= 1];
    a single worker proves the batch in emission order and stops at the
    first failure.  Each call adds 1 to the ["discharge.batches"] counter
    and is wrapped in a ["discharge.batch"] span carrying the requested
    [jobs], the effective [workers], and the batch size. *)
