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
    L008  warning   dead (unreachable) CASE branch in a view constructor
    L011  warning   unsatisfiable selection inside a compiled view
    L101  error     Algebra.infer rejects the view's query (unresolved
                    column, join clash, union column-set disagreement, ...)
    L102  error     a projection binds the same output column twice
    L103  warning   UNION ALL sides agree on columns but in different order
    L104  warning   a NOT NULL table column may receive NULL from its update
                    view (outer-join padding, nullable source)
    L105  error     a constructor references a column the query does not
                    produce (or tests types without the $type column)
    v}

    L011 and L101–L105 cover every view.  L008 covers the constructors of
    the hierarchy-root entity views, the association views and the update
    views: a per-subtype entity view restricts its root's CASE chain, so
    the roots see every branch, and skipping the subtype copies keeps the
    analysis linear in the model rather than in (branches x subtypes).

    {b Shared subterms.}  The incremental compiler builds each new view out
    of the old views' subterms, so the compiled views form a DAG: on the
    customer model about 33,600 algebra nodes as trees, about 2,000
    physically distinct.  Each analysis is therefore a fold memoized on
    physical identity ({!Query.Algebra.Memo}, {!Query.Ctor.Memo}) and runs
    once per distinct subterm.  This is sound because
    - there is one table per analysis per {!check} call, and the
      environment is fixed for the call, so a node's result depends on the
      node alone;
    - a table holds location-free findings ({!Diag.finding}); each view
      places the findings of its subterms at its own location, so a fault
      in a shared subterm is still reported at every view that contains it;
    - the findings of a subterm reached twice within one view are merged
      ({!Diag.union_findings}), so each is reported once per view, which is
      what {!Diag.sort} made of the duplicates of a tree walk.
    A table stores only the results of subterms reached more than once
    ([Memo.shared]), so the memory held during a call stays small. *)

val check :
  Query.Env.t -> Query.View.query_views -> Query.View.update_views -> Diag.t list
(** Every finding of the catalog over a compiled view set, sorted, including
    the L104 nullability dataflow of every update view against its table. *)
