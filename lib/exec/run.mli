(** Physical plan execution.

    [rows] evaluates a compiled {!Plan} over an {!Idb} with the same bag
    semantics as [Query.Eval.rows] on the source query.  It resolves
    nothing: every node already carries its layout and slots, so a node
    only tests, maps and joins positional rows ({!Idb.row}), and a
    [Plan.Param i] reads the plan's [args.(i)], at an index probe and in a
    predicate, so a prepared plan runs with each read's arguments as it
    is.  A stack of
    projections (a projecting scan included) runs as its one fused slot
    map, so each projected row is built once, and only the root's rows are
    converted back to {!Datum.Row.t}, through the plan's template.

    A slot past the end of a row reads [NULL]: an outer join passes an
    unmatched left row through unpadded.  Joins hash the right input and
    probe it from the left (rows match when all join columns are
    non-[NULL] on both sides and equal; a join with no columns is the cross
    product).  Output is in nested-loop order: each left row's matches in
    right input order, or the left row when it has none and the join keeps
    it, then a full join's unmatched right rows, which take their join
    columns from the right.  Index probes skip nothing a residual
    [col = v] filter would keep.  Plans run on the calling domain, and each
    scan keeps its rows in scan order.

    Bumps [exec.rows.scanned] / [exec.rows.joined] counters and records an
    [exec.run] span. *)

val rows : ?jobs:int -> Idb.t -> Plan.t -> Datum.Row.t list
(** [jobs] is ignored: every plan runs on the calling domain, since scans
    split across fresh domains were slower than one domain at every size.
    The argument stays only because the end-to-end benchmark's [serve]
    workload passes [~jobs:1]. *)

(** {1 The row kernel}, with which [Ivm.Engine] runs the same nodes *)

val get : Idb.row -> int -> Datum.Value.t
(** The value at a slot; [NULL] past the row's end ([Datum.Tuple.get]). *)

val holds : Datum.Value.t array -> Idb.row -> Plan.pred -> bool
(** [holds args r p]: whether row [r] satisfies [p], each [Param] read
    from [args]. *)

val project : Plan.item array -> Idb.row -> Idb.row

val matched : Plan.join -> Idb.row -> Idb.row -> Idb.row
(** A matched pair's output row: the left row, then the right's kept slots. *)

val right_only : Plan.join -> Idb.row -> Idb.row
(** An unmatched right row's output row: its join columns in their left
    slots, its kept slots after the left layout.  An unmatched left row is
    output as it is. *)
