(** Change inference: turn an edited client model into a sequence of SMOs —
    the workflow of Section 1.2 ("a developer can simply edit the model and
    then invoke a tool that generates a sequence of SMOs from a diff of the
    old and new models") and of the implementation's MoDEF stage (Fig. 7).

    Recognized edits, matched to SMOs using the mapping style of the
    neighborhood ({!Style.detect}):

    - new entity types (in dependency order): [Add_entity_tph] under a
      TPH-styled parent (same table, the type's name as discriminator
      value), [Add_entity] TPC under a TPC-styled parent, and [Add_entity]
      TPT otherwise — with a generated table [T<Name>] carrying a foreign
      key to the parent's key table;
    - new associations: [Add_assoc_jt] with a generated join table
      [J<Name>] (the conservative choice — it never collides with existing
      columns);
    - new attributes on existing types: [Add_property] into the type's key
      carrier table;
    - dropped leaf types: [Drop_entity]; dropped associations:
      [Drop_association]; dropped attributes: [Drop_property];
    - widened attribute domains: [Widen_attribute]; multiplicity changes:
      [Set_multiplicity].

    Unsupported edits (dropped inner types, incompatibly changed domains,
    moved types, changed association endpoints) are reported as errors. *)

val infer : Core.State.t -> target:Edm.Schema.t -> (Core.Smo.t list, string) result
