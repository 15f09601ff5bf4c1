(** Query containment — the engine behind mapping validation.

    Every validation step of both compilers reduces to containment tests
    over project–select(–join–union) queries (Sections 1.1 and 3 of the
    paper): roundtripping, key preservation, and the foreign-key checks 1–3
    of [AddEntity]/[AddAssocFK].

    The decision procedure is the classic UCQ one: normalize both sides
    ({!Nf.normalize}; the superset side first, then the subset side with
    each source widened to the columns the superset CQs bind on it, see
    {!Nf.bound_columns}), then show every conjunctive query of the subset side
    admits a homomorphism from some conjunctive query of the superset side,
    with atom-level entailment delegated to the constraint solver: the
    subset case's store must entail every fact of the superset CQ's store,
    read through the homomorphism ({!Nf.entails_store}).  Both sides are
    canonical ({!Nf.cq}), so a constant of the superset side maps onto the
    same constant only.  The
    problem is NP-hard; DNF expansion and backtracking make the worst case
    exponential, which is precisely the compilation cost the paper sets out
    to avoid recomputing from scratch.

    [Ok true] means containment is {e proven} (sound, also in the presence
    of outer-join approximations).  [Ok false] means it could not be proven
    — for validation this is treated conservatively as failure, mirroring
    the paper's abort-on-failed-check behaviour. *)

val subset : Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result
(** [subset env q1 q2] tries to prove [q1 ⊆ q2] (set semantics) over all
    database states admitted by [env]'s schemas.  Both sides are first
    simplified by [Query.Simplify.query].  Type sets are bitsets over a
    numbering of [env]'s client types that the call makes for itself;
    {!prove} takes a batch's. *)

val superset :
  infer:(Query.Algebra.t -> (string list, string) result) ->
  Nf.Types.t -> Query.Env.t -> Query.Algebra.t -> (Nf.output, string) result
(** The superset side as {!subset} normalizes it, once simplified:
    [Nf.normalize] with role [Superset_side], typing subterms through
    [infer] (a {!Query.Algebra.typing}).  A pure function of the schemas
    and the query, up to the numbering of types. *)

val prove :
  infer:(Query.Algebra.t -> (string list, string) result) ->
  Nf.Types.t -> Query.Env.t -> Query.Algebra.t -> (Nf.output, string) result Lazy.t ->
  (bool, string) result
(** [prove types env q1 n2] is {!subset} of [q1], already simplified, and
    the superset side [n2], as {!superset} normalizes it over the same
    [types] (and [infer]).  [n2] is forced in the ["containment.normalize"]
    span.  {!Discharge.run} proves through it, simplifying and typing each
    side's subterms once per batch. *)

(** {1 Observability}

    Each {!subset} call opens ["containment.normalize"] under the caller's
    span (simplify and normalize both sides; attrs [lhs_cqs] and [rhs_cqs],
    the UCQ sizes, and [lhs_args] and [rhs_args], their atom arguments
    summed by {!Nf.atom_args}) and, when both sides normalize, ["containment.cases"]
    (chase the subset side and split it by {!Nf.type_cases}; attr [cases])
    and ["containment.hom"] (the homomorphism search; attrs [cases] and
    [rhs_cqs]).  Attribute strings are only built while collection is
    enabled. *)

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

val cases : Obs.Metric.counter
(** ["containment.cases"]: satisfiable subset-side cases after the type
    split, the CQs the homomorphism search must each cover. *)

(** {1 Test seam} *)

module For_tests : sig
  val subset :
    ?split:(against:Nf.cq list -> Nf.cq -> Nf.cq list) ->
    ?full_width:bool ->
    Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result
  (** {!subset} with the type split replaced by [split] (default
      {!Nf.type_cases}; a case carries its own store, as {!Nf.refine}
      narrows it) and, with [~full_width:true], both sides normalized
      by {!Nf.For_tests.normalize_full_width} and every implied entity atom
      binding every column.  Only tests call it: to hold the coarse split
      against the one-case-per-type oracle, and narrowed atoms against
      full-width ones. *)
end
