(** Lowering {!Query.Algebra} trees into physical {!Plan}s.

    The planner simplifies with [Query.Simplify.query], then compiles each
    node to its plan, every layout and slot resolved and [IS OF] expanded
    against the client schema.  A selection is its conjuncts pushed into
    its input's plan, by rewrites that preserve [Query.Eval.rows]' bags:

    - {b selection pushdown}: a conjunct sinks through projections (renamed
      through [AS] items) and into both branches of UNION ALL.  If it reads
      only join columns it sinks into {e both} inputs of every join kind:
      each output row takes its join columns from the input row it came
      from, and a matched pair agrees on them.  Otherwise it sinks into the
      side of an inner join that has its columns, or into a left outer
      join's preserved side, never into a NULL-padded side;
    - {b index selection}: the first [col = v] conjunct reaching a scan on a
      primary-key, foreign-key or association column [col] becomes an
      [Index_eq] probe, the rest a residual filter, less any
      [col IS NOT NULL] (the probe returns no [NULL]);
    - {b projection fusion}: a projection directly over a scan is fused into
      it, and a stack of projections gets one fused slot map.

    A node's own conjuncts come before those pushed into it, and one
    [Filter] holds all that stop above it.  Every join is a hash join
    (build right, probe left); one without join columns hashes every row
    under the empty key, so it runs as a cross join.  {!Run} executes the
    plans, and [Ivm.Engine] maintains those of the update views. *)

type context
(** Planning state for the queries planned over one set of views: a
    [Query.Simplify.query] table, a typing table, each node's unfiltered
    plan and the root templates, all keyed on physical identity and
    holding only the views' nodes, before and after simplification; each
    scanned source's layout and slot table; and the prepared plans of
    {!plan_read}, at most {!prepared_cap}.  A query whose views were
    spliced in [==] ([Query.Unfold.splice]) is simplified, typed and
    compiled afresh only above them, and its conjuncts rebuild only the
    view plan nodes they reach: its other nodes are the views' plans'.  So
    a stream of distinct queries leaves the node tables' size unchanged.
    Counter [exec.plan.nodes], and the [nodes] tag of each [exec.plan]
    span, count the plan nodes built rather than found here: none for a
    read {!plan_read} binds. *)

val context : Query.Env.t -> Query.Algebra.t list -> context
(** Simplifies the views once and records their nodes. *)

val scan_layout : context -> Query.Algebra.source -> string array
(** [scan_layout ctx src] is the layout of every scan of [src] in the plans
    [ctx] lowers ([Idb.scan_layout]).  [scan_layout ctx] keeps the
    context's source table alive, not its node tables. *)

val plan_in : context -> Query.Algebra.t -> (Plan.t, string) result
(** Validates with [Query.Algebra.infer], then simplifies and lowers.
    [Error] carries the inference message. *)

val plan : Query.Env.t -> Query.Algebra.t -> (Plan.t, string) result
(** [plan env q] is [plan_in] with a fresh context over [q]. *)

val plan_read :
  context -> unfold:(Query.Algebra.t -> (Query.Algebra.t, string) result) -> Query.Algebra.t ->
  (Plan.t, string) result
(** [plan_read ctx ~unfold q] plans the client query [q], which [unfold]
    splices over [ctx]'s views, as [plan_in ctx (unfold q)] does, with the
    plan prepared once per {e shape}: [q] with each non-[NULL] comparison
    literal lifted out, its domain kept.  The first read of a shape
    ([exec.plan.cache.miss]) plans it as [plan_in] does, with fresh copies
    of its literals as the parameters: above the views, each comparison
    value that is the [i]th parameter ([==]) becomes [Plan.Param i], and
    the plan's [args] are the parameters.  The context keeps the plan.  A
    later read ([exec.plan.cache.hit]) neither unfolds, simplifies, types,
    pushes down nor walks the plan: it is the kept plan with the read's
    literals as [args], every node [==], and it runs and shows
    ([Plan.show]) as the plan [plan_in] gives for [q].

    Pushdown never reads a literal's value, but [Query.Simplify.cond]
    folds contradictions and duplicates by value.  So a shape where a
    literal may meet another atom on its column during simplification is
    not prepared, and each of its reads is a miss planned as [plan_in]
    does: a selection above the views with a literal and another atom on
    that column, or one over an input that simplifies to a selection, such
    as nested client selections or a view whose root is one.  A read that
    fails keeps nothing. *)

val prepared_cap : int
(** The most shapes a context keeps prepared: a context that holds this
    many empties its table before it prepares another. *)

val prepared : context -> int
(** The shapes [ctx] keeps, prepared or refused. *)
