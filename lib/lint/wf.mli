(** The view analysis of the linter: one memoized walk over the compiled
    views.

    Where {!Passes} judges the mapping, [Wf] judges the {e compiler's
    output}.  Its errors are structural invariants every compiled view must
    satisfy, so an error here is a compiler bug, never a user mistake; its
    warnings flag dead or suspicious parts of the views.  The compilers do
    not run it; the test suite asserts that {!check} finds no error after
    every step of its random-model compile and SMO pipelines, and
    {!Analyze.run} includes it whenever views are supplied.

    {v
    code  severity  finding
    L008  warning   dead (unreachable) CASE branch in a query view's
                    constructor
    L011  warning   unsatisfiable selection inside a compiled view
    L101  error     Algebra.infer rejects the view's query (unresolved
                    column, join clash, union column-set disagreement, ...)
    L102  error     a projection binds the same output column twice
    L103  warning   UNION ALL sides agree on columns but in different order
    L104  warning   a NOT NULL table column may receive NULL from its update
                    view (outer-join padding, nullable source)
    L105  error     an entity view's constructor references a column its
                    query does not produce (or tests types without the
                    $type column); or a view without a constructor does not
                    produce exactly its owner's columns: an association
                    view its association's, an update view its table's
                    (one error per missing or extra column)
    v}

    L011 and L101–L103 cover every view, and L105 every well-typed one.
    L104 covers the update views, each NOT NULL column of the table.  Only
    entity views have constructors, so L008 covers the constructors of the
    hierarchy-root entity views: a per-subtype entity view restricts its
    root's CASE chain, so the roots see every branch, and skipping the
    subtype copies keeps the analysis linear in the model rather than in
    (branches x subtypes).

    {b Shared subterms.}  The incremental compiler builds each new view out
    of the old views' subterms, so the views form a DAG: a loaded customer
    state has 33,306 algebra nodes as trees, 1,818 physically distinct, and
    its entity views' constructors 20,506 nodes as trees, 442 distinct.
    Two analyses are folds memoized on physical identity
    ({!Query.Algebra.Memo}, {!Query.Ctor.Memo}).  One typed fold yields a
    subterm's [Algebra.infer] verdict, columns and L011/L102/L103 findings
    together.  For L105 each call numbers the column names it meets, so a
    set of names is a bitset: the fold over constructors gives each
    distinct subtree the set of attributes and of condition columns it
    references, and each distinct column list of a view is made a set once;
    a view's references are then checked by word.  L008 tests the guards
    {!Query.Ctor.branches} builds once each.  L104 asks, for each NOT NULL
    column of an update view, whether the view may fill it with NULL,
    walking the view's query for that one column: it builds a column list
    only per scanned source.  Sound because each table lives for one {!check} call, with the
    environment fixed, and holds location-free findings ({!Diag.finding})
    that each view places at its own location, merged
    ({!Diag.union_findings}) where one view reaches a subterm twice.  A
    table keeps only subterms reached more than once ([Memo.shared]).  The
    typed fold's column lists are in reverse producer order
    ({!Query.Algebra.infer_step}): a join's list shares its left input's,
    so the views' 94-join chains type in linear space.  On loaded customer
    a call allocates 1.16 MB (1.18 MB after AP): the typed fold's column
    lists and the CASE guards, not its lookups. *)

val check :
  Query.Env.t -> Query.View.query_views -> Query.View.update_views -> Diag.t list
(** Every finding of the catalog over a compiled view set, sorted, including
    the L104 nullability dataflow of every update view against its table. *)
