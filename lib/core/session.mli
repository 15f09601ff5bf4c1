(** Interactive compilation sessions.

    The paper's workflow (Fig. 7) is conversational: the developer issues an
    SMO, the compiler either commits the evolved model or "undoes its
    changes to the schemas and update views and returns an exception".  A
    session wraps that loop: it records every accepted SMO with its timing,
    keeps the full state history for undo/redo, and supports named
    checkpoints for coarse rollback — cheap, because states are immutable
    values.

    A session is a persistent value but not a domain-safe one: each held
    state's planner context is a [Lazy.t] that {!query_plan} forces, and
    [Lazy.force] may not race across domains, nor may two reads add to the
    context's table of prepared plans at once.  Use a session from one
    domain at a time. *)

type t

val start : State.t -> t
val current : t -> State.t

val apply : ?jobs:int -> t -> Smo.t -> (t, Containment.Validation_error.t) result
(** Apply incrementally and record; on validation failure the session is
    unchanged (the "abort" arrow of Fig. 7).  [jobs] is ignored: obligations
    are proven on the calling domain, since no batch an SMO emits repays
    spawning a domain.  The argument stays only because the end-to-end
    benchmark's [edit] and [session] workloads pass [~jobs:1]. *)

val undo : t -> t option
(** Step back over the last accepted SMO; [None] at the initial state. *)

val redo : t -> t option
(** Re-apply the last undone SMO; [None] if nothing was undone.  Applying a
    new SMO clears the redo trail. *)

val checkpoint : name:string -> t -> t
(** Name the present state; a later checkpoint of the same name replaces
    it. *)

val rollback_to : name:string -> t -> (t, string) result
(** Undo until the present state is [==] the named checkpoint's, dropping
    the SMOs after it (they remain visible in {!log} as rolled back).
    [Error] if the name is unknown, or if that state is neither present nor
    in the undo history: the checkpoint was undone away, or undone and then
    replaced by a new SMO. *)

val log : t -> string
(** A human-readable session transcript: SMOs, timings, checkpoints. *)

val query_plan : t -> Query.Algebra.t -> (Exec.Plan.t, string) result
(** The physical plan for a client query over the present state, through
    {!Exec.Planner.plan_read} on the present state's planner context (span
    [exec.plan]).  The first read of a query's shape (the query with its
    non-[NULL] comparison literals lifted out) splices the query views in
    ([Query.Unfold.splice], span [query.unfold]) and lowers the result as
    {!Exec.Planner.plan_in} does; a later one is the plan kept for the
    shape with its own literals as the arguments, and builds no node.
    Either way the plan equals a cold
    [Exec.Planner.plan] of the unfolded query.  Every state the session
    holds carries one planner context over its query views, built on that
    state's first read (span [exec.plan.context]): an SMO's state gets its
    own, and undo, redo and rollback move the states with their contexts,
    so they build none.  Sessions derived from one another share the
    contexts of the states they share, prepared plans included; a new
    session starts with none.  A context keeps at most
    {!Exec.Planner.prepared_cap} shapes, so a stream of distinct queries
    leaves the session's size bounded. *)

val lint : t -> Lint.Diag.t list
(** Run the static mapping analyzer over the present state: exactly
    [Lint.Analyze.run ~views:(query_views, update_views) env fragments].
    Nothing is cached; one run is cheaper than keying a per-fragment
    cache. *)
