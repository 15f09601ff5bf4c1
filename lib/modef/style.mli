(** Mapping-style detection, after the MoDEF system [16] the paper's
    implementation delegates to (Section 4.1): "examine existing mapping
    fragments in the neighborhood of the changes to determine its mapping
    style: TPC, TPT, or TPH". *)

type t = Tpt | Tpc | Tph | Unknown

val pp : Format.formatter -> t -> unit

val detect : Query.Env.t -> Mapping.Fragments.t -> etype:string -> t
(** Classify how the given entity type is mapped:
    - [Tph] — its fragment shares a table with its parent's and selects a
      discriminator constant;
    - [Tpc] — its fragment maps all of [att(E)] (inherited included) to a
      table of its own;
    - [Tpt] — its fragment maps its key and declared attributes to a table
      of its own;
    - [Unknown] — anything else (partitioned, missing, exotic). *)

val own_fragment : Mapping.Fragments.t -> etype:string -> set:string -> Mapping.Fragment.t option
(** The fragment introduced for the type itself: its condition's sole type
    atom tests [etype]. *)

val key_carrier : Query.Env.t -> Mapping.Fragments.t -> etype:string -> (string * (string * string) list) option
(** The table holding the type's key on its own key columns, with the
    key-attribute-to-column pairs — where TPT children hang their foreign
    keys and [AddProperty] lands new columns. *)
