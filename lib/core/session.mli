(** Interactive compilation sessions.

    The paper's workflow (Fig. 7) is conversational: the developer issues an
    SMO, the compiler either commits the evolved model or "undoes its
    changes to the schemas and update views and returns an exception".  A
    session wraps that loop: it records every accepted SMO with its timing,
    keeps the full state history for undo/redo, and supports named
    checkpoints for coarse rollback — cheap, because states are immutable
    values. *)

type entry = { smo : Smo.t; timing : Engine.timing }

type t

val start : State.t -> t
val current : t -> State.t

val apply : ?jobs:int -> t -> Smo.t -> (t, Containment.Validation_error.t) result
(** Apply incrementally and record; on validation failure the session is
    unchanged (the "abort" arrow of Fig. 7).  [?jobs] controls obligation
    discharge parallelism, as in {!Engine.apply}. *)

val undo : t -> t option
(** Step back over the last accepted SMO; [None] at the initial state. *)

val redo : t -> t option
(** Re-apply the last undone SMO; [None] if nothing was undone.  Applying a
    new SMO clears the redo trail. *)

val history : t -> entry list
(** Accepted SMOs, oldest first. *)

val checkpoint : name:string -> t -> t
val rollback_to : name:string -> t -> (t, string) result
(** Return to the named checkpoint, dropping the SMOs after it (they remain
    visible in {!log} as rolled back). *)

val log : t -> string
(** A human-readable session transcript: SMOs, timings, checkpoints. *)

val query_plan : t -> Query.Algebra.t -> (Exec.Plan.t, string) result
(** The physical plan for a client query over the present state: unfolds it
    through the query views ([Query.Unfold.client_query]) and lowers it with
    {!Exec.Planner}, memoized inside the session.  Plans are bucketed by the
    query views they were compiled against, and a bounded number of recent
    generations is kept, so an SMO that moves the views forces recompilation
    while undo/redo/rollback land back on cached plans.  The cache is shared
    by all sessions derived from the same {!start} and reports
    [exec.plan.cache.hit] / [exec.plan.cache.miss] counters.  It is the
    session's only cache. *)

val lint : t -> Lint.Diag.t list
(** Run the static mapping analyzer over the present state: exactly
    [Lint.Analyze.run ~views:(query_views, update_views) env fragments].
    Nothing is cached; one run is cheaper than keying a per-fragment
    cache. *)
