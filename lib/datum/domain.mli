(** Scalar domains for client attributes and store columns.

    The paper's language only needs enough domains to express keys, the
    attributes of the running examples (names, departments, credit scores,
    billing addresses) and condition constants (ages, genders,
    discriminators).  [AddEntity] requires [dom(A) <= dom(f(A))] for every
    mapped attribute; {!subsumes} decides that relation. *)

type t =
  | Int       (** 64-bit integers. *)
  | String    (** Unicode text (nvarchar in the paper's SQL). *)
  | Bool      (** Booleans, also used for provenance flags. *)
  | Decimal   (** Fixed-point numerics, represented as floats. *)
  | Enum of string list
      (** A closed string domain (e.g. gender M/F in Section 3.3 of the
          paper) — closed-world reasoning over such attributes is what makes
          conditions like [gender = 'M' OR gender = 'F'] tautologies. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val show : t -> string

val subsumes : wide:t -> narrow:t -> bool
(** [subsumes ~wide ~narrow] holds when every value of [narrow] is a value of
    [wide].  [Int] values embed into [Decimal]; all other embeddings are
    reflexive. *)
