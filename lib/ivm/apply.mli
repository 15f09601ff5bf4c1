(** Client deltas in, table deltas out — the IVM face of update translation.

    [init] materializes a client instance through the plan once: it
    checks the instance against the guards of a {!step} from the empty
    state whose batch inserts every entity and then every link, filling
    the base images, and hands each source's rows, in its scan layout, to
    {!Engine.init}, which evaluates every table plan once over them.  The result equals that
    step's state (the tests check it); [step] then costs the delta plus
    the table plans it reaches, not O(instance).

    [op] is the client delta type: [Dml.Delta.op] re-exports it (lib/ivm
    sits below lib/dml, so the type is declared here).  [step] enforces
    the keyed guards — duplicate/missing keys, immutable key attributes,
    unknown attributes, duplicate/missing links — against its base images,
    but {e not} the O(instance) whole-state checks of [Dml.Delta.apply]
    (association participation on entity delete, full conformance); callers
    needing those validate the delta separately. *)

type op =
  | Insert_entity of { set : string; entity : Edm.Instance.entity }
  | Delete_entity of { set : string; key : Datum.Row.t }
      (** [key] binds the hierarchy's key attributes. *)
  | Update_entity of { set : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }
      (** Non-key attributes of the identified entity; the entity's type
          must declare (or inherit) every changed attribute. *)
  | Insert_link of { assoc : string; link : Datum.Row.t }
  | Delete_link of { assoc : string; link : Datum.Row.t }

type table_delta = {
  table : string;
  removed : Datum.Row.t list;  (** rows that left the table, ascending *)
  added : Datum.Row.t list;  (** rows that entered the table, ascending *)
}

val init : Plan.t -> Edm.Instance.t -> (State.t, string) result
(** Materialize a full client instance (runs under an ["ivm.init"] span).
    Fails with {!step}'s messages on an instance holding two entities with
    one key in a set or the same link twice, reporting the first in that
    step's batch order. *)

val step : Plan.t -> State.t -> op list -> (table_delta list * State.t, string) result
(** Propagate one batch of ops (runs under an ["ivm.step"] span).  The
    returned deltas cover the tables whose plans read a source the batch
    changes ({!Engine.propagate}), in plan order; a reached table may still
    have empty [removed]/[added], which are the only rows the step turns
    into [Datum.Row.t].  Every other table is unchanged, and its value in
    {!State.store} is physically the previous one. *)

val feed :
  Plan.t -> State.t -> op list -> (State.t * Multiset.t Plan.Src_map.t, string) result
(** The first half of {!step}: check the ops against the base images in
    sequence and turn them into signed base-row deltas per client source,
    returning the state with updated bases; {!step} hands the result to
    {!Engine.propagate}.  An inserted row is built once, in its source's
    scan layout ([Exec.Idb.entity_row]), and that array is both fed and
    kept; a delete feeds it back, an update a changed copy. *)
