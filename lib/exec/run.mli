(** Physical plan execution.

    [rows] evaluates a {!Plan} over an {!Idb} with the same bag semantics as
    [Query.Eval.rows] on the source query.  It first compiles the plan, once
    per call, into a tree of closures over positional rows
    ([Datum.Value.t array], {!Idb.row}).  Every node gets a layout, the
    column at each slot of its rows: a scan's is its source's columns, a
    projection's its destination columns, a join's the left layout followed
    by the right side's non-join columns, and a union takes its left input's,
    into which the right input's rows are permuted.  Conditions, projection
    items and join keys are compiled to slot reads; [IS OF] atoms are
    resolved against the client schema once.  Stacked projections (and a
    projection fused into a scan) are inlined into one slot map, so each
    projected row is built once.  Only the root's rows are converted back to
    {!Datum.Row.t}.

    A column a layout lacks reads as [NULL], as in [Query.Cond.eval], and so
    does every slot past the end of a row: an outer join passes an unmatched
    row through unpadded.  Joins hash the right input and probe it from the
    left (rows match when all join columns are non-[NULL] on both sides and
    equal; a join with no columns is the cross product).  Output is in
    nested-loop order: each left row's matches in right input order, or the
    left row when it has none and the join keeps it, then a full join's
    unmatched right rows, which take their join columns from the right.
    Index probes skip nothing a residual [col = v] filter would keep.  Plans
    run on the calling domain, and each scan keeps its rows in scan order.

    Bumps [exec.rows.scanned] / [exec.rows.joined] counters and records an
    [exec.run] span. *)

val rows : ?jobs:int -> Idb.t -> Plan.t -> Datum.Row.t list
(** [jobs] is ignored: every plan runs on the calling domain, since scans
    split across fresh domains were slower than one domain at every size.
    The argument stays only because the end-to-end benchmark's [serve]
    workload passes [~jobs:1]. *)
