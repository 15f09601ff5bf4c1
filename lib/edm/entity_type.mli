(** Entity types of the client schema (EDM subset of the paper, Section 2).

    An entity type declares its own attributes and inherits the attributes of
    its ancestors.  The primary key is declared on hierarchy roots only and is
    shared by the whole hierarchy.  Full attribute sets ([att(E)]) and key
    lookups live in {!Schema}, which knows the hierarchy. *)

type t = {
  name : string;
  parent : string option;  (** [None] for hierarchy roots. *)
  declared : (string * Datum.Domain.t) list;
      (** Non-inherited attributes, in declaration order. *)
  key : string list;
      (** Primary-key attributes; non-empty exactly on roots. *)
  non_null : string list;
      (** Declared attributes that may not hold [NULL] (the EDM
          nullability facet).  Key attributes are implicitly non-null. *)
}

val equal : t -> t -> bool

val root :
  name:string -> key:string list -> ?non_null:string list ->
  (string * Datum.Domain.t) list -> t
(** [root ~name ~key declared] builds a hierarchy root.  Key attributes must
    be among [declared]. *)

val derived :
  name:string -> parent:string -> ?non_null:string list ->
  (string * Datum.Domain.t) list -> t
(** [derived ~name ~parent declared] builds a non-root type declaring the
    given extra attributes. *)

val declared_names : t -> string list
