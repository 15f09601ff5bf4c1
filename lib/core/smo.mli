(** Schema modification operations (Section 1.2): small changes to the
    client schema paired with a directive on how the change maps to tables.
    Each constructor corresponds to one of the primitives implemented in the
    paper's compiler (Section 4.1: three AddEntity forms, two
    AddAssociation forms, AddProperty) plus the briefly described DropEntity
    and Refactor of Section 3.4. *)

type t =
  | Add_entity of {
      entity : Edm.Entity_type.t;
      alpha : string list;
      p_ref : string option;  (** the ancestor [P]; [None] is the paper's NIL *)
      table : Relational.Table.t;
      fmap : (string * string) list;
    }
      (** AE-TPT / AE-TPC and the general form of Section 3.1: the
          one-partition case (ψ = [TRUE]) of [Add_entity_part], which
          {!Engine} compiles it as. *)
  | Add_entity_part of {
      entity : Edm.Entity_type.t;
      p_ref : string option;
      parts : Add_entity_part.part list;
    }  (** AEP-np: Section 3.3. *)
  | Add_entity_tph of {
      entity : Edm.Entity_type.t;
      table : string;
      fmap : (string * string) list;
      discriminator : string * Datum.Value.t;
    }  (** AE-TPH: Section 3.4. *)
  | Add_assoc_fk of {
      assoc : Edm.Association.t;
      table : string;
      fmap : (string * string) list;
    }  (** AA-FK: Section 3.2. *)
  | Add_assoc_jt of {
      assoc : Edm.Association.t;
      table : Relational.Table.t;
      fmap : (string * string) list;
    }  (** AA-JT: Section 3.4. *)
  | Add_property of {
      etype : string;
      attr : string * Datum.Domain.t;
      target : Add_property.target;
    }  (** AP: Section 3.4. *)
  | Drop_entity of { etype : string }
  | Drop_association of { assoc : string }
  | Drop_property of { etype : string; attr : string }
  | Widen_attribute of { etype : string; attr : string; domain : Datum.Domain.t }
      (** The data-type facet modification of Section 3.4. *)
  | Set_multiplicity of {
      assoc : string;
      mult : Edm.Association.multiplicity * Edm.Association.multiplicity;
    }  (** The cardinality facet modification of Section 3.4. *)
  | Refactor of { assoc : string }

val name : t -> string
(** The benchmark label of the primitive: AE-TPT/TPC, AEP-<n>p, AE-TPH,
    AA-FK, AA-JT, AP, DROP, DROP-A, DROP-P, WIDEN, MULT, REFACTOR.  An AEP
    into 2{^n} partitions, n >= 1, is AEP-<n>p, the paper's label (AEP-1p
    has 2 partitions, AEP-3p 8); one into any other count k of partitions
    is AEP-<k>parts. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
