(** Algebraic cleanup of generated queries.

    The compilers build views mechanically (Algorithms 1 and 2 splice
    sub-views into joins and unions), which leaves easy redundancies:
    selections on [TRUE], stacked selections, stacked projections, identity
    projections.  [query] removes those without changing semantics — tests
    compare the simplified and raw forms by evaluation on random states.

    Deeper, constraint-driven rewrites (full outer join to left outer join or
    UNION ALL) are the view optimizer's job; see [Mapping.Views]. *)

val cond : Cond.t -> Cond.t
(** {!Cond.simplify} plus local satisfiability: conjunctions with jointly
    unsatisfiable atomic conjuncts ([A = c AND A = c'] with [c <> c'],
    [A IS NULL AND A > 3], crossed range bounds — see
    {!Cond.atoms_contradict}) and lone comparisons against [NULL] fold to
    [False].  Conditions without a contradiction come back unchanged. *)

val unsat : Cond.t -> bool
(** [cond c = False], without rebuilding [c]: no row satisfies [c] by
    [cond]'s local reasoning.  A simplified [c] is simplified again for
    free ({!Cond.simplify} keeps it). *)

val query : ?keep:(Algebra.t -> bool) -> Env.t -> Algebra.t -> Algebra.t
(** Views are DAGs: [query env] creates one table keyed on physical
    identity, so applying it to several queries rewrites (and types) each
    distinct subterm once across all of them.  With [keep], the table holds
    only the subterms [keep] picks ({!Phys_memo.S.fix}), so a long-lived
    [query ~keep env] applied to a stream of queries around shared views
    grows only with the views.  A subterm whose rewrite changes nothing
    comes back physically unchanged, so [query env q == q] when [q] is
    already simplified.  The result is structurally the same as rewriting
    each query as a tree. *)
