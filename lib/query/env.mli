(** A compilation environment: the client and store schemas side by side.

    Every phase of the stack — typing queries, evaluating them, checking
    containment, compiling mappings — needs both schemas, so they travel
    together. *)

type t = { client : Edm.Schema.t; store : Relational.Schema.t }

val make : client:Edm.Schema.t -> store:Relational.Schema.t -> t

val type_column : string
(** The phantom column carrying each scanned entity's dynamic type, on which
    [IS OF] conditions are evaluated.  Named ["$type"], which cannot clash
    with schema attributes. *)

val entity_set_columns : t -> string -> string list
(** Columns produced by scanning an entity set: {!type_column} followed by
    the union of all attributes declared anywhere in the set's hierarchy,
    ascending (entities lacking an attribute scan as [NULL] there).  A call
    reads the schema's per-root index ({!Edm.Schema.hierarchy_attribute_names}),
    walks no subtype, and allocates the returned list only. *)

val rev_entity_set_columns : t -> string -> string list
(** [List.rev (entity_set_columns t set)], built in one pass: the form
    {!Algebra.infer_step} types a scan in. *)
