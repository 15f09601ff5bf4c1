(** The [AddProperty] SMO of Section 3.4: add an attribute to an existing
    entity type, mapped either into a table where the type's data already
    lives (a new or re-used nullable column) or into a fresh table keyed by
    the entity key.

    Query views of the type, its ancestors and its descendants are rebuilt
    by left-outer-joining the property column on the hierarchy key and
    extending the affected constructor leaves; the target table's update
    view gains the property through an outer join with
    [σ(IS OF E)(entity set)], after dropping a re-used column's NULL
    padding.  The target table's foreign keys over the columns the new
    fragment writes (all of a new table's, the property's column of an
    existing one) are returned as obligations, for {!Engine.apply} to
    discharge ({!Algo.image_fk_obligations}). *)

type target =
  | To_existing_table of { table : string; column : string }
      (** The column is created (nullable, with the attribute's domain) if
          absent; an existing column must be nullable, unused by the
          mapping, and domain-compatible. *)
  | To_new_table of { table : Relational.Table.t; fmap : (string * string) list }
      (** [fmap] maps the entity key plus the new attribute to the new
          table's columns; the key image must be the table key. *)

val apply :
  State.t ->
  etype:string ->
  attr:string * Datum.Domain.t ->
  target:target ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
