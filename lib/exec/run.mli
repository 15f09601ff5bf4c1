(** Physical plan execution.

    [rows] evaluates a {!Plan} over an {!Idb} with the same bag semantics as
    [Query.Eval.rows] on the source query: every join runs through
    [Query.Join.hash] (rows match when all join columns are present and
    non-[NULL] on both sides and equal; outer joins NULL-pad via the spec's
    pad lists; a join with no columns is the cross product), and index
    probes skip nothing a residual [col = v] filter would keep.

    Full scans over at least [par_threshold] rows are partitioned across
    [Domain.spawn] workers; [jobs] is a cap, as in [Containment.Discharge]
    (clamped by row count and [Domain.recommended_domain_count ()]).  Output
    is deterministic: parallel and sequential execution produce identical
    row lists.

    Bumps [exec.rows.scanned] / [exec.rows.joined] counters and records an
    [exec.run] span. *)

val rows :
  ?jobs:int -> ?par_threshold:int -> Idb.t -> Plan.t -> Datum.Row.t list
(** [jobs] defaults to [1] (sequential); [par_threshold] defaults to
    [2048]. *)
