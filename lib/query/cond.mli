(** The condition language of mapping fragments and views (Section 2.1).

    Conditions are AND–OR combinations (no general negation, as in the
    paper) of the atoms [IS OF E], [IS OF (ONLY E)], [A IS NULL],
    [A IS NOT NULL] and [A θ c].  Comparisons follow SQL semantics: a
    comparison against a [NULL] attribute is not satisfied. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Is_of of string        (** satisfied by the type and its derived types *)
  | Is_of_only of string   (** satisfied by exactly the type *)
  | Is_null of string
  | Is_not_null of string
  | Cmp of string * cmp * Datum.Value.t
  | And of t * t
  | Or of t * t

val equal : t -> t -> bool
val compare : t -> t -> int

module Memo : Phys_memo.S with type node := t
(** {!Phys_memo.Make} over conditions: the views' selections and CASE
    guards share their conjunction chains. *)

val pp : Format.formatter -> t -> unit
val show : t -> string

val conj : t list -> t
val disj : t list -> t
(** n-ary connectives; [conj [] = True], [disj [] = False]. *)

val conjuncts : t -> t list
(** The top-level AND structure, left to right: the leaves of the [And]
    nodes reached from the root without passing another connective.  Linear
    in the result. *)

val eval_cmp : cmp -> Datum.Value.t -> Datum.Value.t -> bool
(** SQL comparison of two values; false whenever either is [NULL]. *)

val eval : Edm.Schema.t -> Datum.Row.t -> t -> bool
(** Evaluate over a row.  [IS OF] atoms read the {!Env.type_column} binding
    and consult the schema's hierarchy; rows without that column never
    satisfy type atoms.  Attribute atoms read the named column; a missing
    column behaves as [NULL]. *)

val atoms : t -> t list
(** The distinct atoms, in first-occurrence order. *)

val exists_atom : (t -> bool) -> t -> bool
(** [exists_atom p c] is [List.exists p (atoms c)], without building the
    list. *)

val columns : t -> string list
(** Attribute names mentioned by non-type atoms. *)

val type_atoms : t -> t list
(** The [Is_of] / [Is_of_only] atoms. *)

val map_atoms : (t -> t) -> t -> t
(** Rebuild the condition, replacing each atom by the image (which may be a
    compound condition) — the workhorse of Algorithm 2's [IS OF] rewrites.
    Sharing-preserving: when [f] returns every atom physically, the result
    is [c] itself. *)

val rename_columns : (string * string) list -> t -> t
(** Substitute attribute names in non-type atoms ([(old, new)] pairs). *)

val with_domains : (string -> Datum.Domain.t option) -> t -> t
(** Each comparison's literal as a value of its column's [domain]
    ({!Datum.Value.of_domain}): an [Int] compared with a [Decimal] column
    becomes the equal [Decimal].  A column [domain] does not know keeps its
    literal.  Sharing-preserving, as {!map_atoms}. *)

val simplify : t -> t
(** Boolean simplification: unit/absorbing elements, flattening, duplicate
    removal.  Purely syntactic — no satisfiability reasoning.
    Sharing-preserving: [simplify (simplify c) == simplify c]. *)

val simplify_and : t -> t -> t
(** [simplify_and a b] is [simplify (And (a, b))] for [a] and [b] already
    simplified, in one step: a conjunction chain extended one simplified
    condition at a time is simplified once, not once per extension. *)

val dnf : t -> t list list
(** Disjunctive normal form as a list of conjunctions of atoms.  [True] is
    the empty conjunction [[[]]]; [False] is the empty disjunction [[]].
    Worst-case exponential, deliberately so: this is the cost the paper
    attributes to containment checking. *)

val atoms_contradict : t -> t -> bool
(** Whether two atoms are jointly unsatisfiable under SQL semantics:
    [A = c] against [A θ c'] excluding [c], [A IS NULL] against any
    comparison or [A IS NOT NULL], crossed range bounds, distinct
    [IS OF (ONLY _)] tests, and comparisons against a [NULL] literal (never
    satisfied on their own).  Sound but not complete; [Is_of] pairs need the
    hierarchy and are left to schema-holding callers.  Non-atoms are never
    reported contradictory. *)

val negate : t -> t option
(** SQL-faithful row-level complement, when expressible without type
    reasoning: comparisons flip and pick up an [IS NULL] disjunct, null
    tests flip, [And]/[Or] dualize.  [None] if a type atom occurs. *)
