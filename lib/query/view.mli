(** Compiled views and view sets (Section 2.2).

    A query-view set holds one view per entity *type* — Algorithm 1 reuses
    the previous view of any ancestor [P], so per-type views are the unit of
    incremental maintenance — plus one query per association set.  The view
    of a hierarchy's root type doubles as the entity-set view used to
    materialize client states.  An update-view set holds one query per store
    table mentioned in the mapping.  Only an entity view needs a
    constructor: an association view's columns are exactly its
    association's and an update view's exactly its table's (lint's L105
    checks both), so their distinct rows are the links and the table's
    rows. *)

type t = { query : Algebra.t; ctor : Ctor.t }
(** An entity view [(Q_E | τ_E)]. *)

val equal : t -> t -> bool

module String_map : Map.S with type key = string

type query_views = {
  entity : t String_map.t;  (** keyed by entity-type name *)
  assoc : Algebra.t String_map.t;  (** keyed by association-set name *)
}

type update_views = Algebra.t String_map.t  (** keyed by table name *)

val no_query_views : query_views
val no_update_views : update_views
val entity_view : query_views -> string -> t option
val assoc_view : query_views -> string -> Algebra.t option
val table_view : update_views -> string -> Algebra.t option
val set_entity_view : string -> t -> query_views -> query_views
val set_assoc_view : string -> Algebra.t -> query_views -> query_views
val set_table_view : string -> Algebra.t -> update_views -> update_views
val remove_entity_view : string -> query_views -> query_views
val remove_assoc_view : string -> query_views -> query_views
val remove_table_view : string -> update_views -> update_views
val entity_view_bindings : query_views -> (string * t) list
val assoc_view_bindings : query_views -> (string * Algebra.t) list
val update_view_bindings : update_views -> (string * Algebra.t) list

val queries : query_views -> update_views -> Algebra.t list
(** Every view's query: the entity, association, then update views. *)

val apply_query_views :
  Env.t -> query_views -> Relational.Instance.t -> (Edm.Instance.t, string) result
(** Materialize the client state of a store state: evaluate each hierarchy
    root's view, and make each distinct row of an association view a link.
    Fails when a view is missing or ill-typed. *)

val apply_update_views :
  Env.t -> update_views -> Edm.Instance.t -> (Relational.Instance.t, string) result
(** Materialize the store state of a client state: each table holds the
    distinct rows of its update view.  Tables without views end up empty. *)

val roundtrip :
  Env.t -> query_views -> update_views -> Edm.Instance.t -> (Edm.Instance.t, string) result
(** Push a client state down through the update views and pull it back up
    through the query views — the composition [Q ∘ V] whose identity on
    client states is the paper's correctness criterion. *)
