(** Indexed database instances.

    Wraps a {!Query.Eval.db} with per-source materialized row lists and
    on-demand single-column hash indexes, the access paths {!Run} uses for
    [Index_eq] scans and hash-join builds.  Indexes skip rows whose key
    column is [NULL] (so a probe equals [σ(col = v)] with SQL three-valued
    equality) and a [NULL] probe value returns nothing. *)

type t

val make : Query.Env.t -> Query.Eval.db -> t
val env : t -> Query.Env.t
val db : t -> Query.Eval.db

val source_rows : t -> Query.Algebra.source -> Datum.Row.t list
(** The rows [Query.Eval.rows] gives for a scan of a source, as it returns
    them, kept after the first call. *)

val lookup : t -> Query.Algebra.source -> string -> Datum.Value.t -> Datum.Row.t list
(** [lookup t src col v] returns the rows of [src] whose [col] equals [v]
    ([[]] when [v] is [NULL]).  Builds the hash index on first use; bumps the
    [exec.index.builds] / [exec.index.hits] counters. *)
