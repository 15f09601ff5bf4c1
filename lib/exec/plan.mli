(** Physical query plans.

    A plan is what {!Planner} lowers a {!Query.Algebra} tree into and what
    {!Run} executes: scans annotated with an access path (full or hash-index
    probe), a residual filter and an optionally fused projection; hash joins,
    each carrying its {!Query.Join.t} spec (kind, join columns, precomputed
    outer-join padding); and bag union.  A join without equality columns is
    a hash join too: every row's key is empty, so the single bucket yields
    the cross product.  The executor's semantics on any plan produced by
    {!Planner} equal [Query.Eval.rows] on the source query, as bags. *)

type access =
  | Full_scan
  | Index_eq of { col : string; value : Datum.Value.t }
      (** Probe the hash index on [col] for [value]; rows whose [col] is
          [NULL] are never returned, and a [NULL] probe value returns
          nothing — exactly the semantics of [σ(col = value)]. *)

type node =
  | Scan of {
      source : Query.Algebra.source;
      access : access;
      filter : Query.Cond.t;  (** residual predicate; [True] when absent *)
      proj : Query.Algebra.proj_item list option;
          (** fused projection, applied after [filter] *)
    }
  | Filter of Query.Cond.t * node
  | Project of Query.Algebra.proj_item list * node
  | Hash_join of join  (** build on [right], probe from [left] *)
  | Append of node * node  (** UNION ALL *)

and join = { spec : Query.Join.t; left : node; right : node }

type t = node

val pp : Format.formatter -> t -> unit
val show : t -> string
(** An indented EXPLAIN-style tree, one operator per line. *)

val scans : t -> int
(** Number of scans in the plan, whatever their access path. *)

val index_scans : t -> int
(** Number of [Index_eq] access paths in the plan (for tests and EXPLAIN
    summaries). *)
