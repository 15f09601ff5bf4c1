(** Query containment — the engine behind mapping validation.

    Every validation step of both compilers reduces to containment tests
    over project–select(–join–union) queries (Sections 1.1 and 3 of the
    paper): roundtripping, key preservation, and the foreign-key checks 1–3
    of [AddEntity]/[AddAssocFK].

    The decision procedure is the classic UCQ one: normalize both sides
    ({!Nf.normalize}), then show every conjunctive query of the subset side
    admits a homomorphism from some conjunctive query of the superset side,
    with atom-level entailment delegated to the constraint solver.  The
    problem is NP-hard; DNF expansion and backtracking make the worst case
    exponential, which is precisely the compilation cost the paper sets out
    to avoid recomputing from scratch.

    [Ok true] means containment is {e proven} (sound, also in the presence
    of outer-join approximations).  [Ok false] means it could not be proven
    — for validation this is treated conservatively as failure, mirroring
    the paper's abort-on-failed-check behaviour. *)

val subset : Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result
(** [subset env q1 q2] tries to prove [q1 ⊆ q2] (set semantics) over all
    database states admitted by [env]'s schemas. *)

val equivalent : Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result

val set_caching : bool -> unit
(** Verdicts are memoized by (schemas, queries) — repeated validation runs
    over the same mapping re-ask the same checks, and the paper's Section
    4.2 attributes most of the compilation time to them.  The key compares
    the full client and store schemas, so a verdict is only ever served for
    the schemas it was proven over.  Off by default so that benchmark
    timings measure cold validation (the paper's setting); enable it to
    measure the memoization ablation.

    The memo table is shared across {!Discharge} worker domains and protected
    by a mutex, so caching may be enabled under any [jobs] setting without
    affecting verdicts. *)

val clear_cache : unit -> unit

(** {1 Counters}

    Live [Obs.Metric] counters; traces, benchmarks and [imcc] read them
    directly (take a value before and after to get a per-phase delta). *)

val checks : Obs.Metric.counter
(** ["containment.checks"]: {!subset} calls that ran the prover. *)

val cq_pairs : Obs.Metric.counter
(** ["containment.cq_pairs"]: homomorphism problems attempted. *)

val hom_steps : Obs.Metric.counter
(** ["containment.hom_steps"]: atom-matching steps explored. *)

val approximate_checks : Obs.Metric.counter
(** ["containment.approximate_checks"]: checks that used outer-join
    approximations. *)

val cache_hits : Obs.Metric.counter
(** ["containment.cache_hits"]: checks answered from the memo table. *)
