(** Indexed database instances.

    Wraps a {!Query.Db.t} with each source materialized once into its
    scan layout, and on-demand single-column hash indexes, the access paths
    {!Run} uses for every scan.  A source's layout is its columns as
    [Query.Algebra.infer] gives them for a scan, and each of its rows is an
    array holding the value of each layout column at that column's slot (a
    column the stored row lacks holds [NULL]).  Client rows are built here,
    from [Edm.Instance] ({!entity_row}, and [Datum.Row.values] for a link),
    not by the evaluator they are tested against.  Indexes are keyed by slot.
    They skip rows whose key column is [NULL] (so a probe equals
    [σ(col = v)] with SQL three-valued equality) and a [NULL] probe value
    returns nothing.

    A store table's rows come from {!Relational.Instance.values}: the arrays
    are part of the table's value, so an instance over a later store (after
    an IVM step, say) shares them for every table the step left alone, and
    a table is listed only when a scan or an index build asks for its rows.
    Indexes stay with the instance that built them: each instance builds,
    and counts, its own, so two runs of the same reads from the same store
    do the same counted work.  The one exception is a table the store keeps
    as a maintained image ({!Relational.Instance.image}) in the instance's
    layout: a probe on its one-column primary key reads the image's key
    map, which belongs to the store, so it builds nothing and counts only
    the hit. *)
type t

type row = Datum.Tuple.t

val same_value : Datum.Value.t -> Datum.Value.t -> bool
(** [Datum.Value.compare a b = 0], matching [Int] and [String] pairs
    directly. *)

module Value_tbl : Hashtbl.S with type key = Datum.Value.t
(** Tables keyed by value under {!same_value} and [Datum.Value.hash]: the
    indexes' and the hash joins' tables. *)

val bucket : 'a list Value_tbl.t -> Datum.Value.t -> 'a list
(** [bucket tbl v] is the list bound to [v], or [[]]; a hit allocates
    nothing. *)

val push : 'a list Value_tbl.t -> Datum.Value.t -> 'a -> unit
(** [push tbl v x] puts [x] at the head of [v]'s list, binding [v] to
    [[x]] when it has none; it allocates no option. *)

val scan_layout : Query.Env.t -> Query.Algebra.source -> string array

val entity_row : string array -> Edm.Instance.entity -> row
(** [e]'s row in its entity set's scan layout: {!Query.Env.type_column}
    holds [String e.etype], an attribute [e] lacks [NULL].  The runtimes'
    one entity-row builder ({!source}'s, and [Ivm.Apply]'s). *)

val make : Query.Env.t -> Query.Db.t -> t
(** Wraps an instance pair, materializing nothing yet.  [Query.Eval.db] is
    [Query.Db.t], so a pair an oracle's caller built
    ([Query.Eval.store_db]) passes as it is. *)

val db : t -> Query.Db.t

type source
(** One source of the instance, materialized. *)

val source : t -> Query.Algebra.source -> source
(** Materializes a client source on its first use and keeps it; a store
    table is listed on its first {!rows}. *)

val rows : source -> row list
(** The rows [Query.Eval.rows] gives for a scan of the source, each in the
    source's layout: in its order for a client source or a listed table,
    and in ascending array order ([Datum.Tuple.compare]) for a maintained
    image. *)

val lookup : source -> int -> Datum.Value.t -> row list
(** [lookup s slot v] returns the rows of [s] whose value at [slot] equals
    [v], in scan order ([[]] when [v] is [NULL]).  On a maintained image's
    key slot it reads the image's key map; otherwise it builds the hash
    index on the slot on first use ([exec.index.builds]).  Each lookup of
    a non-[NULL] value bumps [exec.index.hits]. *)
