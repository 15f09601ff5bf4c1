(** Update views lowered for delta propagation.

    Each update view is lowered by [Exec.Planner], the planner the query
    runtime uses: one [Exec.Plan.t] per table, so both runtimes run the same
    plan, simplified, with selections pushed down and fused into scans, and
    every node carrying its compiled form (layout and slots).  {!Engine}
    maintains these plans over positional rows; it numbers each table
    plan's joins in preorder to key their group state in the table's
    {!State} entry.

    The table plans are indexed by the client sources (entity sets and
    association sets; update views never scan store tables) their view
    scans ([readers]), so the engine visits only the plans a delta can
    reach.

    Each table's rows are kept in the table's own layout
    ([Relational.Instance.image]): a table plan carries that layout, the
    slot of its one-column primary key, and the map from its root's layout
    into it.

    Compilation is pure; a long-lived translator compiles once per view set
    (see [Dml.Translate.ivm_init]). *)

module Src_map : Map.S with type key = Query.Algebra.source

type table_plan = {
  table : string;
  root : Exec.Plan.t;
  layout : string array;  (** the table's columns, its scan layout ([Exec.Idb.scan_layout]) *)
  key : int option;  (** the slot of the table's primary key, when that is one column *)
  into : Exec.Plan.item array option;
      (** the root slot of each [layout] column, when the root's layout
          orders them otherwise *)
}

type t = {
  env : Query.Env.t;
  tables : table_plan list;  (** ascending table-name order *)
  readers : table_plan list Src_map.t;
      (** per client source, the table plans whose view scans it, in plan
          order: the plans a delta of that source can reach *)
  scan_layout : Query.Algebra.source -> string array;
      (** the layout of a client source's scans in these plans, from the
          planner context that lowered them ([Exec.Planner.scan_layout]) *)
}

val compile : Query.Env.t -> Query.View.update_views -> (t, string) result
(** Fails on ill-typed views, on views scanning store tables, and on a view
    whose columns are not its table's. *)

val readers : t -> Query.Algebra.source -> table_plan list
(** The table plans reading a source, in plan order ([[]] for a source no
    view reads). *)
