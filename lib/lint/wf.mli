(** Algebra well-formedness checker for compiled views.

    Where {!Passes} judges the mapping, [Wf] judges the {e compiler's
    output}: the structural invariants every compiled view must satisfy.  An
    error here is a compiler bug, never a user mistake.  The compilers do
    not run it; the test suite asserts that {!check} finds no error after
    every step of its random-model compile and SMO pipelines, and
    {!Analyze.run} includes it whenever views are supplied.

    {v
    code  severity  finding
    L101  error     Algebra.infer rejects the view's query (unresolved
                    column, join clash, union column-set disagreement, ...)
    L102  error     a projection binds the same output column twice
    L103  warning   UNION ALL sides agree on columns but in different order
    L104  warning   a NOT NULL table column may receive NULL from its update
                    view (outer-join padding, nullable source)
    L105  error     a constructor references a column the query does not
                    produce (or tests types without the $type column)
    v} *)

val view_diags : Query.Env.t -> Diag.location -> Query.View.t -> Diag.t list
(** L101, L102, L103, L105 for one view. *)

val check :
  Query.Env.t -> Query.View.query_views -> Query.View.update_views -> Diag.t list
(** All well-formedness diagnostics of a compiled view set, including the
    L104 nullability dataflow of every update view against its table. *)
