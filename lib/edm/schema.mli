(** Client schemas: inheritance hierarchies of entity types, entity sets, and
    associations (the EDM subset of Section 2 of the paper).

    A schema is immutable; evolution steps (the SMOs of Section 3) produce new
    schemas through the [add_*] / [remove_*] / {!reparent} operations.  Every
    hierarchy root is declared together with the entity set that holds its
    instances; derived types implicitly belong to the set of their root. *)

type t

val empty : t

(** {1 Construction and evolution} *)

val add_root : set:string -> Entity_type.t -> t -> (t, string) result
(** Declare a hierarchy root and its entity set.  Fails if the type is not a
    root (has a parent or an empty key), if it declares an attribute twice
    or marks an undeclared one non-null, or if the type or set name is
    already taken. *)

val add_derived : Entity_type.t -> t -> (t, string) result
(** Declare a derived type.  Fails if the parent is unknown, the name is
    taken, the type declares a key, declares an attribute twice or marks an
    undeclared one non-null, or a declared attribute shadows an inherited
    one. *)

(** The declaration {!of_declarations} refuses, by its place in its list,
    counting from 0: a place rather than a name, since a name declared twice
    is one of the faults, and the one refused is not always the later. *)
type declaration = Type of int | Set of int | Association of int

val of_declarations :
  Entity_type.t list -> sets:(string * string) list -> Association.t list ->
  (t, declaration * string) result
(** The schema of a model's declarations: entity types in document order,
    [(set, root)] pairs and associations.  Each root is placed with its set,
    then its children in document order, in one walk down from the roots,
    with the checks of {!add_root} and {!add_derived}; the child index and
    each hierarchy's attribute index are built once, after every type is
    placed, and the result equals the fold of [add_root] and [add_derived]
    over the same walk.  Fails if a type is never reached (its parent is
    missing or lies on a cycle; the message names every such type, the
    declaration the first of them), if a root has no set or two (the second
    set's declaration), if a set's root is unknown or not a root, or if a
    type's or an association's own check fails (of two namesakes, the one
    the walk reaches second is refused).  The error pairs the
    declaration with the message, so a loader can say where it stands. *)

val add_association : Association.t -> t -> (t, string) result
val remove_association : string -> t -> (t, string) result

val remove_type : string -> t -> (t, string) result
(** Remove a leaf type that is no association endpoint.  Removing a root also
    removes its entity set. *)

val add_attribute : etype:string -> string * Datum.Domain.t -> t -> (t, string) result
(** Append a declared attribute (the [AddProperty] SMO's schema step).  Fails
    on a name clash anywhere in the subtree or ancestry of [etype]. *)

val remove_attribute : etype:string -> string -> t -> (t, string) result

val widen_attribute : etype:string -> string -> Datum.Domain.t -> t -> (t, string) result
(** Change a declared attribute's domain to one subsuming the old (the
    data-type facet modification of the paper's Section 3.4). *)

val set_multiplicity :
  assoc:string -> Association.multiplicity * Association.multiplicity -> t ->
  (t, string) result
(** Change an association's multiplicities (the cardinality facet). *)
(** Remove a declared (non-inherited, non-key) attribute — the schema step
    of the [DropProperty] SMO. *)

val reparent : etype:string -> parent:string -> t -> (t, string) result
(** Turn a root into a derived type of [parent] (the schema step of the
    [Refactor] SMO).  The type loses its own key and entity set; its
    descendants follow it into the parent's hierarchy.  Fails if [etype] is
    not a root, if a cycle would form, or if attributes would clash. *)

(** {1 Hierarchy queries}

    The schema keeps an index from each type to its children, which the
    evolution operations above maintain, so {!children} and {!subtypes}
    cost the size of their result. *)

val mem_type : t -> string -> bool
val find_type : t -> string -> Entity_type.t option
val types : t -> Entity_type.t list
(** All entity types in ascending name order. *)

val parent : t -> string -> string option
val children : t -> string -> string list
(** Direct children in ascending name order. *)
val ancestors : t -> string -> string list
(** Proper ancestors, nearest first. *)

val subtypes : t -> string -> string list
(** The type itself followed by its proper descendants in preorder — the
    types satisfying [IS OF E]. *)

val is_subtype : t -> sub:string -> sup:string -> bool
(** Reflexive.  This, {!is_proper_ancestor}, {!root_of}, {!key_of} and
    {!attribute_nullable} walk the parent links without building
    {!ancestors}. *)

val is_proper_ancestor : t -> anc:string -> descendant:string -> bool
val root_of : t -> string -> string
val strictly_between : t -> low:string -> high:string option -> string list
(** Types that are proper ancestors of [low] and proper descendants of
    [high] — the set [p] of Algorithms 1 and 2.  With [high = None] (the
    paper's NIL), all proper ancestors of [low] qualify. *)

(** {1 Attributes and keys} *)

val attributes : t -> string -> (string * Datum.Domain.t) list
(** [att(E)]: inherited attributes first (root downwards), then declared. *)

val hierarchy_attributes : t -> string -> (string * Datum.Domain.t) list
(** Every attribute of some type in the hierarchy of the given type's root,
    once, ascending by name, with the domain of its earliest declaring type
    in the root's {!subtypes} preorder (sibling types may declare one name
    with different domains).  The schema keeps this per root, in an index
    the evolution operations above maintain. *)

val hierarchy_attribute_names : t -> string -> string list
(** The names of {!hierarchy_attributes}, read off the index. *)

val rev_hierarchy_attribute_names : t -> string -> string list -> string list
(** [rev_hierarchy_attribute_names t name tail] is
    [List.rev_append (hierarchy_attribute_names t name) tail], built in one
    pass over the index. *)

val hierarchy_attribute : t -> string -> string -> Datum.Domain.t option
(** [hierarchy_attribute t name a] is [a]'s domain in
    [hierarchy_attributes t name], by one lookup in the index. *)

val attribute_names : t -> string -> string list
val attribute_domain : t -> string -> string -> Datum.Domain.t option

val attribute_nullable : t -> string -> string -> bool
(** Whether the attribute (of the given type) may hold [NULL]: false for key
    attributes and attributes declared non-null; true otherwise (including
    unknown attributes). *)
val key_of : t -> string -> string list
(** The hierarchy key, looked up at the root. *)

(** {1 Entity sets} *)

val entity_sets : t -> (string * string) list
(** [(set name, root type)] pairs, ascending by set name. *)

val set_root : t -> string -> string option
val set_of_type : t -> string -> string option
(** The entity set whose hierarchy contains the given type. *)

(** {1 Associations} *)

val associations : t -> Association.t list
val find_association : t -> string -> Association.t option
val associations_on : t -> string -> Association.t list
(** Associations having exactly the given type as an endpoint, ascending by
    name: one lookup in an endpoint index the evolution operations above
    maintain. *)

val association_columns : t -> Association.t -> string list
(** Qualified columns of the association set: end1 key columns then end2 key
    columns. *)

val association_attributes : t -> Association.t -> (string * Datum.Domain.t) list
(** {!association_columns} paired with the domain of the endpoint key
    attribute each column carries. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
