(** Client-side updates — the [U] of Section 1.1's update-translation
    problem: "an update U expressed on the object-oriented view of data must
    be translated into updates on the relational view that have exactly the
    effect of U and preserve database consistency."

    A delta is a sequence of entity/link operations; {!apply} gives it
    semantics over client states with SQL-flavoured integrity behaviour
    (fresh keys on insert, existing keys on delete/update, immutable keys,
    no dangling links), and the resulting state is re-checked with
    [Edm.Instance.conforms]. *)

type op = Ivm.Apply.op =
  | Insert_entity of { set : string; entity : Edm.Instance.entity }
  | Delete_entity of { set : string; key : Datum.Row.t }
  | Update_entity of { set : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }
  | Insert_link of { assoc : string; link : Datum.Row.t }
  | Delete_link of { assoc : string; link : Datum.Row.t }
(** The one client-delta type, which [Ivm.Apply] propagates. *)

type t = op list

val pp : Format.formatter -> t -> unit

val apply : Edm.Schema.t -> Edm.Instance.t -> t -> (Edm.Instance.t, string) result
(** Left to right; the first failing operation aborts with the state
    untouched.  Deleting an entity that still participates in an
    association is an error (delete the links first). *)
