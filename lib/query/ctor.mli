(** Constructor expressions — the [τ] component of views (Section 2.2).

    A query view [(Q_E | τ_E)] evaluates the relational query [Q_E] and then
    applies [τ_E] to each row to decide which entity type to instantiate —
    the role of the CASE statement in Fig. 2.  A constructor only ever
    builds entities: association and update views have none, their
    query's rows being the association's links and the table's rows. *)

type t =
  | Entity of { etype : string; attrs : string list }
      (** Instantiate [etype] from the named row columns (which coincide
          with the attribute names of the type). *)
  | If of Cond.t * t * t
      (** Branch on the row (provenance flags, discriminators). *)

val equal : t -> t -> bool

module Memo : Phys_memo.S with type node := t
(** {!Phys_memo.Make} over constructors: views of one hierarchy share their
    CASE chains, so a constructor analysis runs once per distinct node. *)

val pp : Format.formatter -> t -> unit

val eval_entity : Edm.Schema.t -> Datum.Row.t -> t -> Edm.Instance.entity
(** The entity of the leaf the row's branch conditions reach. *)

val branches : t -> (Cond.t * t) list option
(** Guard/leaf pairs, leaves left to right, each guard the
    {!Cond.simplify}d conjunction of the conditions on the leaf's path with
    the else-branch conditions complemented via {!Cond.negate}; [None] when
    some branch condition is not negatable.  Guards share their common
    prefixes, so a CASE chain of [n] branches costs [O(n)] condition nodes.
    Used by {!guard_for} and the linter's dead-branch check. *)

val guard_for : t -> satisfies:(string -> bool) -> Cond.t option
(** The row-level condition under which the constructed entity's type
    satisfies the predicate — the key step of view unfolding, which
    translates a client-side [IS OF E] into a store-side test on provenance
    flags.  [None] when a branch condition resists complementation. *)
