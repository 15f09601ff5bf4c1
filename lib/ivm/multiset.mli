(** Keyed multisets of rows with signed multiplicities — the currency of
    delta propagation.

    A value maps each distinct row to a non-zero integer count.  Positive
    counts describe (fragments of) materialized bag states; mixed-sign values
    describe {e deltas}: [+n] means the row gains [n] occurrences, [-n] that
    it loses [n].  All operations keep the representation canonical (no
    zero-count entries), so [is_empty] means "no change". *)

module Row_map : Map.S with type key = Datum.Row.t

type t = int Row_map.t

val empty : t
val is_empty : t -> bool

val count : Datum.Row.t -> t -> int
(** 0 when absent. *)

val add : Datum.Row.t -> int -> t -> t
(** Add [n] occurrences (may be negative); entries summing to zero vanish. *)

val sum : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: [a]'s counts minus [b]'s — the delta turning [b] into [a]. *)

val to_list : t -> (Datum.Row.t * int) list
(** Bindings in ascending {!Datum.Row.compare} order. *)

val rows : t -> Datum.Row.t list
(** Rows with positive count, ascending — the {e set} reading of a state. *)

val fold : (Datum.Row.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Datum.Row.t -> bool) -> t -> t

val map_rows : (Datum.Row.t -> Datum.Row.t) -> t -> t
(** Image under a row function; counts of colliding images sum. *)

val total : t -> int
(** Sum of absolute multiplicities — the "rows touched" size of a delta. *)

val cardinal : t -> int

val group_by : string list -> t -> t Row_map.t
(** Partition by the projection onto the given columns (the join-key
    grouping).  Rows lacking a column simply project without it. *)

val apply_distinct : base:t -> delta:t -> t * t
(** Maintain a DISTINCT view over a bag: apply the bag-level [delta] to
    [base] (multiplicities ≥ 0) and return the updated base together with
    the {e set-level} delta — [+1] for rows whose count crossed 0 → positive,
    [-1] for rows whose count dropped to 0. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
