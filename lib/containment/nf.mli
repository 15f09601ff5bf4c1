(** Normalization of algebra queries into unions of conjunctive queries
    (UCQs) — the input format of the containment checker.

    A conjunctive query has a head (output column to term), a body of source
    atoms binding columns to terms, and a constraint store over variables
    (type memberships from [IS OF] atoms, comparisons, null tests).
    Source-level invariants are seeded automatically: key columns and
    non-nullable table columns are non-null, entity rows range over the
    hierarchy's types.

    Selections are expanded through {!Cond.dnf} (worst-case exponential —
    the honest cost of validation).  Outer joins are handled exactly where a
    surrounding projection only needs one side (or only the join columns),
    and otherwise by sound one-sided approximations chosen by [role]:
    the subset side of a containment check gets an upper bound (padding
    branches without the anti-join guard), the superset side a lower bound
    (the inner join).  Approximate normalizations are flagged so callers can
    report incompleteness instead of wrong answers. *)

type term = V of int | C of Datum.Value.t

type atom = { src : Query.Algebra.source; args : (string * term) list }

type constr =
  | Ty_in of int * string list
      (** The variable (a dynamic-type binding) is one of the named types. *)
  | Rel of int * Query.Cond.cmp * Datum.Value.t
  | Null_c of int
  | Not_null_c of int

type cq = {
  head : (string * term) list;
  body : atom list;
  cons : constr list;
}

type role = Subset_side | Superset_side

type output = { cqs : cq list; approximate : bool }

val normalize : Query.Env.t -> role -> Query.Algebra.t -> (output, string) result
(** Unsatisfiable disjuncts are pruned; an empty [cqs] means the query is
    provably empty. *)

val consistent : constr list -> bool
(** Whether the constraint store is satisfiable (per-variable reasoning:
    type-set intersection, interval emptiness with exact integer rounding,
    finite boolean domains, null conflicts). *)

val entails : constr list -> constr -> bool
(** Whether every assignment satisfying the store satisfies the target
    constraint — the atom-level test of homomorphism checking. *)

val type_cases : cq -> cq list
(** Split a conjunctive query into one case per concrete type of each of its
    dynamic-type variables.  The union of the cases is equivalent to the
    original CQ; splitting the subset side this way makes the homomorphism
    test complete for coverage checks such as
    [IS OF P ⊆ IS OF (ONLY P) ∪ IS OF E] — the disjunctions Algorithm 2
    introduces. *)

val equal_term : term -> term -> bool
