(** Lowering {!Query.Algebra} trees into physical {!Plan}s.

    The planner first normalizes with [Query.Simplify.query], then lowers
    with three rewrites, all semantics-preserving under [Query.Eval.rows] bag
    semantics:

    - {b selection pushdown}: selection conjuncts sink through projections
      (renamed through [AS] items), into both branches of UNION ALL, into the
      side of an inner join whose columns they mention, and into the
      preserved (left) side of a left outer join — never through the
      NULL-padding side of an outer join;
    - {b index selection}: a [col = v] conjunct reaching a scan whose [col]
      is a primary-key, foreign-key or association column becomes an
      [Index_eq] access path, the rest a residual filter;
    - {b projection fusion}: a projection directly over a scan is fused into
      the scan node.

    Every join becomes a hash join (build right, probe left) through
    {!Query.Join.hash}; a join with no join columns hashes every row under
    the empty key, so it runs as a cross join. *)

val plan : Query.Env.t -> Query.Algebra.t -> (Plan.t, string) result
(** Validates with [Query.Algebra.infer], then lowers.  [Error] carries the
    inference message. *)
