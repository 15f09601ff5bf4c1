(** Update translation: client deltas to store DML through the update views.

    The roundtripping guarantee makes translation conceptually simple — the
    update views determine the store state of any client state — and this
    module turns that into *incremental* DML: push the client delta through
    the compiled update views and classify the changed rows of each table
    by primary key into INSERT/UPDATE/DELETE statements ({!full_diff}, the
    oracle, gets the same script by diffing whole store images).  The
    result applies the exact effect of the client delta (property-tested:
    applying the script to the old store yields the new store, and reading
    the new store back through the query views yields the updated client
    state — the "exactly the effect of U" criterion of Section 1.1). *)

type store_op =
  | Insert_row of { table : string; row : Datum.Row.t }
  | Delete_row of { table : string; key : Datum.Row.t }
  | Update_row of { table : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }

type script = store_op list
(** Each table's changed rows, paired by primary key into DELETE, UPDATE and
    INSERT.  All deletes come first, children first; then all updates; then
    all inserts, referenced tables first.  The foreign-key order places
    tables level by level, each level in name order; self references are
    ignored, and tables on a cycle (or referencing a table the schema
    lacks) follow in name order.  {!translate}, {!ivm_step} and
    {!full_diff} order their scripts so. *)

val to_sql : script -> string
(** Render as INSERT/UPDATE/DELETE statements (presentation syntax). *)

val translate :
  Query.Env.t -> Query.View.update_views -> old_client:Edm.Instance.t -> delta:Delta.t ->
  (script * Edm.Instance.t * Relational.Instance.t, string) result
(** Apply the delta to the client state and derive the store script by
    pushing only the delta through a compiled [Ivm.Plan] ({!ivm_init} then
    {!ivm_step}).  Returns the script together with the new client and
    store states.  The delta is validated with [Delta.apply] first. *)

val full_diff :
  Query.Env.t -> Query.View.update_views -> old_client:Edm.Instance.t -> delta:Delta.t ->
  (script * Edm.Instance.t * Relational.Instance.t, string) result
(** The whole-store oracle {!translate} is checked against: materialize the
    old and new store images with [Query.View.apply_update_views] and diff
    them table by table (O(instance)).  Same result shape and the same
    [Delta.apply] validation; the script is byte-identical to
    {!translate}'s (property-tested). *)

(** {2 Incremental translation}

    The one-shot {!translate} still pays O(instance) to materialize the
    initial state.  Callers translating a {e stream} of deltas against a
    fixed mapping hold an [incremental] instead: [ivm_init] compiles the
    plan, materializes the instance and computes the foreign-key order of
    the store once; each [ivm_step] then costs the delta plus the table
    plans it reaches ([Ivm.Engine.propagate]), and orders only the touched
    tables' deltas.

    [ivm_step] enforces keyed guards only (see [Ivm.Apply]); it does not
    re-run [Delta.apply]'s whole-instance checks. *)

type incremental

val ivm_init :
  Query.Env.t -> Query.View.update_views -> Edm.Instance.t -> (incremental, string) result

val ivm_step : incremental -> Delta.t -> (script * incremental, string) result

val ivm_store : incremental -> Relational.Instance.t
(** The maintained store image (set-equal to pushing the current client
    state through the update views), in O(1).  Each table is an
    [Ivm.State] image ([Relational.Instance.image]): value arrays in the
    table's layout, listed in ascending array order, with a key map for a
    one-column primary key.  A table the last step did not change is the
    very same table value, with whatever a reader listed from it. *)

val apply_script :
  Relational.Instance.t -> script -> (Relational.Instance.t, string) result
(** Execute the DML against a store state (keys must exist/not exist as the
    operations require). *)
