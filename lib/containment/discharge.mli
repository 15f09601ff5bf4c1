(** Batch discharge engine for {!Obligation} values.

    Phase 2 of the two-phase validation pipeline: SMO algorithms and the full
    compiler {e emit} obligation batches ({!Obligation.t} lists) and hand them
    here to be proven, either sequentially or across [Domain.spawn] workers.

    Determinism guarantee: for any [jobs], [run] returns the same verdict as
    sequential discharge, and on failure reports the {e first} failing
    obligation in emission order (parallel workers track the minimum failing
    index).  {!Check.subset} keeps no mutable state, so workers share
    nothing but the obligation list. *)

val run : ?jobs:int -> Obligation.t list -> (unit, Validation_error.t) result
(** [run ?jobs obls] discharges every obligation with {!Check.subset}.
    [jobs] defaults to 1; nothing reads it from the environment.  [jobs <= 1]
    (or a batch of at most one obligation) runs sequentially with
    short-circuiting.  Larger [jobs] run the parallel worker loop; [jobs] is a
    {e cap} on the worker count — the engine never uses more domains than
    [Domain.recommended_domain_count ()] (oversubscribing a machine's cores
    can only lose wall-clock, and by the determinism guarantee the worker
    count is unobservable in the result).  The calling domain always joins
    the work, so [workers - 1] domains are spawned.  The whole batch is
    wrapped in a ["discharge.batch"] span carrying the requested [jobs], the
    effective [workers], and the batch size. *)
