(** Keyed multisets of positional rows ([Datum.Tuple.t]) with signed
    multiplicities — the currency of delta propagation.

    A value maps each distinct row to a non-zero integer count.  Positive
    counts describe (fragments of) materialized bag states, such as the
    DISTINCT counts of a store image ([Relational.Instance.image]); mixed-sign
    values describe {e deltas}: [+n] means the row gains [n] occurrences,
    [-n] that it loses [n].  All operations keep the representation
    canonical (no zero-count entries), so [is_empty] means "no change".
    Rows compare under [Datum.Tuple.compare]: an unpadded outer-join row
    equals its padded form, so each row has one canonical form. *)

module Row_map = Datum.Tuple.Map

type t = int Row_map.t

val empty : t
val is_empty : t -> bool

val add : Datum.Tuple.t -> int -> t -> t
(** Add [n] occurrences (may be negative); entries summing to zero
    vanish. *)

val sum : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: [a]'s counts minus [b]'s — the delta turning [b] into
    [a]. *)

val fold : (Datum.Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
val filter : (Datum.Tuple.t -> bool) -> t -> t

val map_rows : (Datum.Tuple.t -> Datum.Tuple.t) -> t -> t
(** Image under a row function; counts of colliding images sum. *)

val total : t -> int
(** Sum of absolute multiplicities — the "rows touched" size of a
    delta. *)

val cardinal : t -> int

val apply_distinct : base:t -> delta:t -> t * t
(** Maintain a DISTINCT view over a bag: apply the bag-level [delta] to
    [base] (multiplicities ≥ 0) and return the updated base together with
    the {e set-level} delta — [+1] for rows whose count crossed 0 →
    positive, [-1] for rows whose count dropped to 0. *)
