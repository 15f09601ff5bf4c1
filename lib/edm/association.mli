(** Association types between two entity types (Section 2 of the paper).

    An association set is a set of tuples pairing the key attributes of the
    participating entities; its columns are the key attributes of each end
    qualified with the end's entity-type name (e.g. [Customer.Id],
    [Employee.Id] for the [Supports] association of Fig. 1).  We follow the
    paper's simplifying assumptions: endpoint key-attribute names are
    disambiguated by qualification and every association set is mentioned in
    a single mapping fragment. *)

type multiplicity =
  | One          (** exactly 1 *)
  | Zero_or_one  (** 0..1 *)
  | Many         (** * *)

type t = {
  name : string;       (** Doubles as the association-set name. *)
  end1 : string;       (** Entity-type name of the first endpoint. *)
  end2 : string;       (** Entity-type name of the second endpoint. *)
  mult1 : multiplicity;  (** Multiplicity at the [end1] side. *)
  mult2 : multiplicity;  (** Multiplicity at the [end2] side. *)
}

val equal : t -> t -> bool
val pp_multiplicity : Format.formatter -> multiplicity -> unit

val qualify : etype:string -> string -> string
(** [qualify ~etype a] is the qualified column name of key attribute [a] of
    endpoint type [etype], i.e. ["etype.a"]. *)

val end1_columns : t -> key:string list -> string list
val end2_columns : t -> key:string list -> string list
(** Qualified association-set columns for each end, given that end's
    entity-type key. *)
