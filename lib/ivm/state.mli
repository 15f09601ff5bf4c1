(** Materialized images maintained between deltas.

    Immutable (each propagation returns a new value), holding two layers
    and the store image they determine:

    - {e bases}: per client source, the current scan rows keyed by the
      source's key columns — what {!Apply} consults to validate ops and to
      build signed row deltas;
    - {e tables}: per store table, the bag of view query rows with
      multiplicities, so DISTINCT maintenance is a counter transition
      rather than a re-sort; and, per join of the table's plan (numbered
      in preorder, so the numbers are local to the table), both input bags
      in the inputs' layouts, grouped by the values of their join-key
      slots — what the engine needs to recompute exactly the touched key
      groups;
    - {e store}: per store table, the rows of [query_counts], ascending.  A
      table is re-listed only when its rows change, so the row list of a
      table a propagation leaves alone is physically the previous one. *)

module Row_map = Multiset.Rows.Row_map
module Group_map = Multiset.Slots.Row_map
module Int_map : Map.S with type key = int
module String_map : Map.S with type key = string
module Src_map = Plan.Src_map

type join_state = { lefts : Multiset.Slots.t Group_map.t; rights : Multiset.Slots.t Group_map.t }

type table_state = {
  query_counts : Multiset.Rows.t;
  joins : join_state Int_map.t;  (** by the join's preorder number in the plan *)
}

type t = {
  bases : Datum.Row.t Row_map.t Src_map.t;
  tables : table_state String_map.t;
  store : Relational.Instance.t;
}

val empty : Plan.t -> t
(** No rows anywhere; the store image lists every table of the plan. *)

val base : t -> Query.Algebra.source -> Datum.Row.t Row_map.t
val set_base : Query.Algebra.source -> Datum.Row.t Row_map.t -> t -> t
val join : join_state Int_map.t -> int -> join_state
(** A join's entry in a table's [joins]; no groups when absent. *)

val table : t -> string -> table_state
val set_table : string -> table_state -> changed:bool -> t -> t
(** Replace a table's state.  [changed] says whether the rows of
    [query_counts] differ, as a set, from the current ones; only then is
    the table re-listed in the store image. *)

val store : t -> Relational.Instance.t
(** The materialized store image, in O(1): per table, the rows of
    [query_counts], ascending — by construction equal (as a set) to pushing
    the current client state through [Query.View.apply_update_views]. *)
