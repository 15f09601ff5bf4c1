(** Physical plan execution.

    [rows] evaluates a {!Plan} over an {!Idb} with the same bag semantics as
    [Query.Eval.rows] on the source query: every join runs through
    [Query.Join.hash] (rows match when all join columns are present and
    non-[NULL] on both sides and equal; outer joins NULL-pad via the spec's
    pad lists; a join with no columns is the cross product), and index
    probes skip nothing a residual [col = v] filter would keep.  Plans run
    on the calling domain, and each scan keeps its rows in scan order.

    Bumps [exec.rows.scanned] / [exec.rows.joined] counters and records an
    [exec.run] span. *)

val rows : ?jobs:int -> Idb.t -> Plan.t -> Datum.Row.t list
(** [jobs] is ignored: every plan runs on the calling domain, since scans
    split across fresh domains were slower than one domain at every size.
    The argument stays only because the end-to-end benchmark's [serve]
    workload passes [~jobs:1]. *)
