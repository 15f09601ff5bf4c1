(** Materialized images maintained between deltas.

    Immutable (each propagation returns a new value), holding two layers
    and the store image they determine:

    - {e bases}: per client source, the current rows, each the very array
      {!Apply} fed the engine (in the source's scan layout), keyed by the
      entity's key columns ([NULL] where it lacks one) or by the link —
      what {!Apply} consults to validate ops and feeds back on a delete or
      update;
    - {e joins}: per store table, and per join of the table's plan
      (numbered in preorder, so the numbers are local to the table), both
      input bags in the inputs' layouts, grouped by the values of their
      join-key slots — what the engine needs to recompute exactly the
      touched key groups;
    - {e store}: per store table, its image ([Relational.Instance.image]):
      the bag of the view's query rows in the table's layout with their
      multiplicities, so DISTINCT maintenance is a counter transition
      rather than a re-sort, and for a one-column primary key the map from
      key value to rows.  The image is the one copy of the table: reads
      take its arrays and probe its key map where they are
      ([Exec.Idb]).  A step rewrites only the tables whose counts it
      changes, and those in O(changed rows · log n): nothing is
      re-listed, and a table a propagation leaves alone is physically the
      previous one. *)

module Row_map : Map.S with type key = Datum.Row.t
module Group_map = Multiset.Row_map
module Int_map : Map.S with type key = int
module String_map : Map.S with type key = string
module Src_map = Plan.Src_map

type join_state = { lefts : Multiset.t Group_map.t; rights : Multiset.t Group_map.t }

type t = {
  bases : Datum.Tuple.t Row_map.t Src_map.t;
  joins : join_state Int_map.t String_map.t;
      (** per table, by the join's preorder number in the table's plan *)
  store : Relational.Instance.t;
}

val empty : Plan.t -> t
(** No rows anywhere; the store image holds every table of the plan, each
    an empty image in its layout (with an empty key map for a one-column
    key). *)

val base : t -> Query.Algebra.source -> Datum.Tuple.t Row_map.t
val set_base : Query.Algebra.source -> Datum.Tuple.t Row_map.t -> t -> t
val join : join_state Int_map.t -> int -> join_state
(** A join's entry in a table's joins; no groups when absent. *)

val joins : t -> string -> join_state Int_map.t

val image : t -> string -> Relational.Instance.image
(** A table's image.  @raise Not_found for a table the plan lacks. *)

val set_table : string -> join_state Int_map.t -> counts:Multiset.t -> out:Multiset.t -> t -> t
(** Replace a table's join states and DISTINCT counts.  [out] is the
    set-level delta that took the image's counts to [counts]
    ([Multiset.apply_distinct]); the key map follows its 0↔positive
    transitions, a row at [-1] leaving its key's rows and one at [+1]
    joining them, in O(|out| · log n).  Counts left [==] leave the store's
    table as it is. *)

val init_table : string -> join_state Int_map.t -> Exec.Idb.row list -> t -> t
(** The first image of a table whose image is empty, from its query rows
    in its layout (a row repeated by its multiplicity): the DISTINCT counts
    and the key map built in one fold. *)

val store : t -> Relational.Instance.t
(** The materialized store image, in O(1): per table, the rows of its
    counts — by construction equal (as a set) to pushing the current
    client state through [Query.View.apply_update_views]. *)
