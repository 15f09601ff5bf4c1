(** The synthetic chain model of Fig. 8: [size] entity types with no
    inheritance, each related to the next by two associations, every type
    mapped one-to-one to its own table and every association to a
    key/foreign-key pair.  The paper uses 1002 types; a full compilation of
    that model takes 15 minutes in Entity Framework and is the Fig. 9
    baseline.

    Each table carries a spare nullable [Extra] column (the landing spot for
    the AA-FK benchmark) and a [Disc] discriminator written by the type's
    fragment (so AE-TPH has a well-styled neighborhood to extend, as in the
    paper's synthetic runs). *)

val generate : size:int -> Query.Env.t * Mapping.Fragments.t

val smo_suite : at:int -> (string * Core.Smo.t) list
(** The Fig. 9 primitives, targeting the chain around position [at]:
    AE-TPT, AE-TPC, AE-TPH, AEP-1p…AEP-3p (TPT with one foreign key per
    partition table), AA-FK, AA-JT and AP — labelled as in the figure. *)
