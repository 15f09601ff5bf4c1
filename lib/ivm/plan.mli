(** Compilation of update views into a delta-propagation dataflow.

    A plan mirrors the view algebra one node per operator, with two
    additions that make incremental evaluation self-contained:

    - every join carries a stable [id] (index into the per-join group state
      of {!State}) and its precomputed outer-join padding column lists, so
      the engine never re-infers schemas at propagation time;
    - the client-side {e sources} (entity sets and association sets — update
      views never scan store tables) are listed with their key columns, which
      is what lets {!Apply} key the base images.

    Compilation is pure; a long-lived translator compiles once per view set
    (see [Dml.Translate.ivm_init]). *)

module Src_map : Map.S with type key = Query.Algebra.source

type join_kind = Inner | Left | Full

type node =
  | Scan of Query.Algebra.source
  | Select of Query.Cond.t * node
  | Project of Query.Algebra.proj_item list * node
  | Join of join
  | Union of node * node

and join = {
  id : int;  (** dense index, [0 .. join_count-1], keys the group state *)
  kind : join_kind;
  on : string list;
  left : node;
  right : node;
  left_pad : string list;
      (** right-side-only columns NULL-padded onto unmatched left rows
          (outer kinds) *)
  right_pad : string list;
      (** left-side-only columns NULL-padded onto unmatched right rows
          ([Full] only) *)
}

type table_plan = { table : string; root : node; ctor : Query.Ctor.t }

type t = {
  env : Query.Env.t;
  tables : table_plan list;  (** ascending table-name order *)
  join_count : int;
  sources : (Query.Algebra.source * string list) list;
      (** each client source with its key columns: the hierarchy key for an
          entity set, all association columns for an association set *)
}

val compile : Query.Env.t -> Query.View.update_views -> (t, string) result
(** Fails on ill-typed views and on views scanning store tables. *)

val pp_node : Format.formatter -> node -> unit
