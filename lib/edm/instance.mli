(** Client states: populations of entity sets and association sets.

    Instances are what mappings relate to store states — the [c] in the
    paper's [M ⊆ C × S].  They are produced by evaluating query views over a
    store instance and consumed by update views; the roundtripping criterion
    compares instances with {!equal} (order-insensitive). *)

type entity = { etype : string; attrs : Datum.Row.t }

type t

val empty : t
val add_entity : set:string -> entity -> t -> t
val add_link : assoc:string -> Datum.Row.t -> t -> t

val set_entities : set:string -> entity list -> t -> t
val set_links : assoc:string -> Datum.Row.t list -> t -> t
(** Replace one entity set's (association's) population; every other list
    is kept as it is. *)

val entities : t -> set:string -> entity list
val links : t -> assoc:string -> Datum.Row.t list

val entity : etype:string -> (string * Datum.Value.t) list -> entity

val conforms : Schema.t -> t -> (unit, string) result
(** Type-check the instance against a schema: every entity's type belongs to
    its set's hierarchy and carries exactly [att(E)] with domain-respecting,
    key-non-null values; keys are unique per entity set; association tuples
    carry the qualified key columns of both ends, reference existing
    entities, and respect the declared multiplicities. *)

val equal : t -> t -> bool
(** Set-semantics equality: populations compared up to order and
    duplicates. *)

val pp : Format.formatter -> t -> unit
val pp_entity : Format.formatter -> entity -> unit
