(** Compilation of update views into a delta-propagation dataflow.

    A plan mirrors the view algebra one node per operator, with three
    additions that make incremental evaluation self-contained and cheap:

    - every join carries a stable [id] (index into the per-join group state
      of {!State}) and its {!Query.Join.t} spec — the kind, join columns and
      precomputed outer-join padding lists shared with [Exec.Plan] — so the
      engine never re-infers schemas at propagation time;
    - the client-side {e sources} (entity sets and association sets — update
      views never scan store tables) are listed with their key columns, which
      is what lets {!Apply} key the base images;
    - the table plans are indexed by the sources they scan ([readers]), so
      the engine visits only the plans a delta can reach.

    Compilation is pure; a long-lived translator compiles once per view set
    (see [Dml.Translate.ivm_init]). *)

module Src_map : Map.S with type key = Query.Algebra.source

type node =
  | Scan of Query.Algebra.source
  | Select of Query.Cond.t * node
  | Project of Query.Algebra.proj_item list * node
  | Join of join
  | Union of node * node

and join = {
  id : int;  (** dense index, unique within the plan, keys the group state *)
  spec : Query.Join.t;
  left : node;
  right : node;
}

type table_plan = { table : string; root : node; ctor : Query.Ctor.t }

type t = {
  env : Query.Env.t;
  tables : table_plan list;  (** ascending table-name order *)
  sources : (Query.Algebra.source * string list) list;
      (** each client source with its key columns: the hierarchy key for an
          entity set, all association columns for an association set *)
  readers : table_plan list Src_map.t;
      (** per client source, the table plans that scan it, in plan order:
          the plans a delta of that source can reach *)
}

val compile : Query.Env.t -> Query.View.update_views -> (t, string) result
(** Fails on ill-typed views and on views scanning store tables. *)

val readers : t -> Query.Algebra.source -> table_plan list
(** The table plans reading a source, in plan order ([[]] for a source no
    view reads). *)
