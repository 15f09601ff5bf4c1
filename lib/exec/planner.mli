(** Lowering {!Query.Algebra} trees into physical {!Plan}s.

    The planner first normalizes with [Query.Simplify.query], then lowers
    with three rewrites, all semantics-preserving under [Query.Eval.rows] bag
    semantics:

    - {b selection pushdown}: selection conjuncts sink through projections
      (renamed through [AS] items) and into both branches of UNION ALL.  A
      conjunct that reads only join columns sinks into {e both} inputs of
      every join, inner, left or full outer: each output row takes its join
      columns from the input row it came from, and a matched pair agrees on
      them, so [σf (L ⋈on R) = σf L ⋈on σf R] whenever [f] reads only [on]
      columns (NULL keys included: they match nothing on either side).  Any
      other conjunct sinks into the side of an inner join whose columns it
      mentions, or into the preserved (left) side of a left outer join, and
      never into a NULL-padded side;
    - {b index selection}: a [col = v] conjunct reaching a scan whose [col]
      is a primary-key, foreign-key or association column becomes an
      [Index_eq] access path, the rest a residual filter;
    - {b projection fusion}: a projection directly over a scan is fused into
      the scan node.

    Every join becomes a hash join (build right, probe left) carrying its
    {!Query.Join.t} spec; a join with no join columns hashes every row under
    the empty key, so it runs as a cross join.

    Both runtimes run the plans lowered here: {!Run} executes the plans of
    client queries, and [Ivm.Plan] lowers every update view through one
    {!context} and {!plan_in}, so [Ivm.Engine] maintains the same plans
    under client deltas. *)

type context
(** Planning state for the queries planned over one set of views: a
    [Query.Simplify.query] table, a typing ([Query.Algebra.infer_step])
    table and a table of each join's {!Query.Join.t} spec, all keyed on
    physical identity and holding only the views' nodes, before and after
    simplification.  A query whose views were spliced in [==]
    ([Query.Unfold.splice]) is then simplified and typed afresh only above
    them, and planning a stream of distinct queries leaves the context's
    size unchanged. *)

val context : Query.Env.t -> Query.Algebra.t list -> context
(** Simplifies the views once and records their nodes. *)

val plan_in : context -> Query.Algebra.t -> (Plan.t, string) result
(** Validates with [Query.Algebra.infer], then simplifies and lowers.
    [Error] carries the inference message.  The plan is the one {!plan}
    gives for the same query. *)

val plan : Query.Env.t -> Query.Algebra.t -> (Plan.t, string) result
(** [plan env q] is [plan_in] with a fresh context over [q]: the one-shot
    entry. *)
