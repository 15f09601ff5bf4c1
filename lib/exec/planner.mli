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
      [Index_eq] access path, the rest a residual filter, less any
      [col IS NOT NULL] (the probe returns no [NULL]);
    - {b projection fusion}: a projection directly over a scan is fused into
      the scan node, and a stack of projections gets one fused slot map.

    Every join becomes a hash join (build right, probe left) carrying its
    {!Query.Join.t} spec; a join with no join columns hashes every row under
    the empty key, so it runs as a cross join.  Every node is lowered with
    its compiled form ({!Plan}): its layout and its slots, with [IS OF]
    expanded against the client schema, so no runtime resolves a name.

    Both runtimes run the plans lowered here: {!Run} executes the plans of
    client queries, and [Ivm.Plan] lowers every update view through one
    {!context} and {!plan_in}, so [Ivm.Engine] maintains the same plans
    under client deltas. *)

type context
(** Planning state for the queries planned over one set of views: a
    [Query.Simplify.query] table, a typing table and a table of each node's
    compiled form (its layout, and its projection's, join's or union's
    slots), all keyed on physical identity and holding only the views'
    nodes, before and after simplification; a root template table; and
    each scanned source's layout and slot table.  A query whose views were
    spliced in [==] ([Query.Unfold.splice]) is then simplified, typed and
    compiled afresh only above them, so it pays for its own nodes and the
    filters pushed into its scans, and planning a stream of distinct
    queries leaves the context's size unchanged. *)

val context : Query.Env.t -> Query.Algebra.t list -> context
(** Simplifies the views once and records their nodes. *)

val scan_layout : context -> Query.Algebra.source -> string array
(** [scan_layout ctx src] is the layout of every scan of [src] in the plans
    [ctx] lowers ([Idb.scan_layout]), taken from the context's source
    table.  [scan_layout ctx] keeps that table alive, not the node tables. *)

val plan_in : context -> Query.Algebra.t -> (Plan.t, string) result
(** Validates with [Query.Algebra.infer], then simplifies and lowers.
    [Error] carries the inference message.  The plan is the one {!plan}
    gives for the same query. *)

val plan : Query.Env.t -> Query.Algebra.t -> (Plan.t, string) result
(** [plan env q] is [plan_in] with a fresh context over [q]: the one-shot
    entry. *)
