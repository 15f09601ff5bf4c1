(** Physical query plans, compiled.

    A plan is what {!Planner} lowers a {!Query.Algebra} tree into, and what
    both runtimes run: {!Run} over an {!Idb}, and [Ivm.Engine] over deltas.
    Its operators are scans annotated with an access path (full or
    hash-index probe), a residual filter and an optionally fused
    projection; hash joins, each carrying its {!Query.Join.t} spec; and bag
    union.  A join without equality columns is a hash join too: every row's
    key is empty, so the single bucket yields the cross product.

    Every node carries its compiled form, so a runtime resolves no name.
    Rows are positional ({!Idb.row}), and each node has a {e layout}: the
    column at each slot of its rows.  A join's is the left layout followed
    by the right side's non-join columns, a filter's its input's and a
    union's its left input's.  A slot past the end of a row reads [NULL].
    The semantics of any plan produced by {!Planner} equal
    [Query.Eval.rows] on the source query, as bags. *)

val absent : int
(** The slot of a column a layout lacks: it reads [NULL] in every row. *)

(** A comparison's value: a literal, or the plan's argument at an index
    of its [args].  A plan {!Planner.plan_read} prepares for a read's shape
    holds a [Param] wherever one of the read's literals was pushed, so a
    later read of the shape only sets [args]. *)
type operand = Lit of Datum.Value.t | Param of int

type access =
  | Full_scan
  | Index_eq of { col : string; slot : int; value : operand }
      (** Probe the hash index on [col] (at [slot] of the scan layout) for
          [value]; rows whose [col] is [NULL] are never returned, and a
          [NULL] probe value returns nothing — exactly the semantics of
          [σ(col = value)]. *)

(** A condition resolved to slots.  [IS OF e] is [Type_in] over the
    subtypes of [e] in the client schema (none when [e] is not a type), and
    [IS OF ONLY e] is [Type_in] over [e] alone. *)
type pred =
  | Always
  | Never
  | Type_in of int * string list  (** the slot holds one of the type names *)
  | Null of int
  | Not_null of int
  | Cmp of int * Query.Cond.cmp * operand
  | Both of pred * pred
  | Either of pred * pred

(** A projection item resolved to slots of the input layout. *)
type item =
  | Slot of int
  | Const of Datum.Value.t
  | Coalesce of item array  (** the first non-[NULL] value *)

type node =
  | Scan of {
      source : Query.Algebra.source;
      access : access;
      filter : Query.Cond.t;
      pred : pred;  (** [filter] over the source's scan layout *)
      proj : Query.Algebra.proj_item list option;  (** fused projection, applied after [filter] *)
      map : item array option;  (** [proj] over the source's scan layout *)
      layout : string array;
    }
  | Filter of { cond : Query.Cond.t; pred : pred; input : node }
  | Project of {
      items : Query.Algebra.proj_item list;
      slots : item array;  (** the items over [input]'s layout *)
      fused : item array;
          (** the items over the rows below the stack of projections this
              one tops (a projecting scan's included), with every item an
              upper projection reads replaced by the item computing it *)
      layout : string array;
      input : node;
    }
  | Hash_join of join  (** build on [right], probe from [left] *)
  | Append of { left : node; right : node; perm : int array option }
      (** UNION ALL; [perm], when the right layout's order differs, is the
          right slot of each left layout column *)

and join = {
  spec : Query.Join.t;
  left : node;
  right : node;
  lkey : int array;  (** the slots of the join columns in the left layout *)
  rkey : int array;  (** ... and in the right layout *)
  keep : int array;  (** the right slots the output keeps, in order *)
  layout : string array;
}

type t = {
  root : node;
  template : Datum.Row.t;  (** the root layout's columns, each bound to [NULL] *)
  order : int array;
      (** the root slot of each [template] column, in ascending name
          order: a root row becomes a [Datum.Row.t] through one
          [Datum.Row.mapi] of [template] *)
  args : Datum.Value.t array;  (** the value of each [Param], by index *)
}

val show : t -> string
(** An indented EXPLAIN-style tree, one operator per line.  A comparison's
    value is read through the predicate compiled from its condition, so a
    [Param] shows its argument: the [Query.Cond.t] fields of a prepared
    plan keep the literals of the read that first planned its shape. *)

val scans : t -> int
(** Number of scans in the plan, whatever their access path. *)

val index_scans : t -> int
(** Number of [Index_eq] access paths in the plan (for tests and EXPLAIN
    summaries). *)
