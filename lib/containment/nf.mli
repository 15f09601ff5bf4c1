(** Normalization of algebra queries into unions of conjunctive queries
    (UCQs) — the input format of the containment checker.

    A conjunctive query has a head (output column to term), a body of source
    atoms binding columns to terms, and a solved constraint store over
    variables (type memberships from [IS OF] atoms, comparisons, null
    tests), which is the only form its constraints take.

    An atom binds only the columns its query observes: the head, the
    columns that selections test ([$type] when they have type atoms), the
    join columns, the sources of projections and the padding of outer
    joins, plus the columns a caller asks to widen a source by.  Source-level
    invariants are seeded for the bound columns only: a bound key column or
    non-nullable table column is non-null, and a bound [$type] ranges over
    the hierarchy's types.  An unbound column would carry nothing but such a
    seed.  Reading a column that the subterm has but did not bind raises
    [Invalid_argument] instead of reading NULL.

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

(** The numbering of a client schema's entity types that type sets are
    bitsets over ({!Datum.Name_set}).  A discharge batch builds one per
    schema and normalizes, splits and matches every CQ of the batch over
    it, so a type set means something only within its batch.  Types are
    numbered in order of first sight, and each type's subtree set is built
    at most once per numbering. *)
module Types : sig
  type t

  val create : Edm.Schema.t -> t
  (** An empty numbering of the schema's types. *)

  val subtypes : t -> string -> Datum.Name_set.t
  (** The type and its descendants ({!Edm.Schema.subtypes}), as a set;
      built on the first call for the type, then returned as is. *)

  val of_names : t -> string list -> Datum.Name_set.t
  val names : t -> Datum.Name_set.t -> string list
  (** The set's types, in numbering order: only printing and tests need
      them. *)

  val mem : t -> Datum.Name_set.t -> string -> bool
  (** Whether the named type is in the set; a name the numbering has not
      seen is in no set. *)
end

type constr =
  | Ty_in of int * Datum.Name_set.t
      (** The variable (a dynamic-type binding) is one of the types of the
          set, a bitset over the batch's {!Types.t}: intersection, inclusion
          and the splits of {!type_partition} are word operations. *)
  | Rel of int * Query.Cond.cmp * Datum.Value.t
  | Null_c of int
  | Not_null_c of int

type store
(** A constraint store solved into per-variable facts: the intersection of
    a variable's [Ty_in] sets, its equality, disequalities and bounds, and
    its null tests. *)

type cq = {
  head : (string * term) list;
  body : atom list;
  store : store;
}
(** A canonical CQ: no variable of [store] is forced equal to a constant.
    {!normalize} replaces such a variable by its constant in the head and
    body, and drops the CQ unless the variable's other facts hold on the
    constant ([Ty_in] through {!Types.mem}, comparisons and null tests on
    its value). *)

type role = Subset_side | Superset_side

type output = { cqs : cq list; approximate : bool }

val normalize :
  ?widen:(Query.Algebra.source -> string list) ->
  infer:(Query.Algebra.t -> (string list, string) result) ->
  Types.t -> Query.Env.t -> role -> Query.Algebra.t -> (output, string) result
(** Unsatisfiable disjuncts are pruned; an empty [cqs] means the query is
    provably empty.  A scan's seeds are solved into a store ({!solve}), and
    each intermediate state adds each new constraint to its store
    ({!add}), merges the stores of a join's two sides, and, substituting a
    variable by a constant, checks the variable's facts on the constant and
    drops it, so a pruning point tests the store and nothing is solved
    again.  The CQs are canonical (see {!cq}).  Each scan of a source [src]
    also binds the columns of [widen src] that the source has (by default
    none); the checker widens the subset side by the superset side's
    {!bound_columns}.  Type sets are over [types], which numbers [env]'s
    client types.  Outer-join reductions and padding type subterms through
    [infer], a {!Query.Algebra.typing} over [env]: a discharge batch passes
    one per schemas to every call. *)

val bound_columns : cq list -> Query.Algebra.source -> string list
(** [bound_columns cqs src]: every column that some atom of [cqs] over
    [src] binds, ascending.  Partial application computes the table once. *)

val atom_args : cq list -> int
(** The atom arguments summed over the CQs' bodies. *)

val solve : constr list -> store
(** One fold of {!add} over the list.  Each call adds 1 to {!solves}. *)

val facts : store -> constr list
(** Each variable's facts as constraints: its [Ty_in] set (the intersection
    of those it was given), its equality, each disequality, its tightest
    bounds and its null tests.  [solve (facts s)] holds the facts of [s]. *)

val add : store -> constr -> store
(** [add (solve cons) c] has the facts of [solve (c :: cons)]: a variable's
    facts are a fold over its constraints whose steps commute. *)

val refine : store -> int -> Datum.Name_set.t -> store
(** [refine store v tys] is [add store (Ty_in (v, tys))]: a case of
    {!type_cases} narrowed to one class of types. *)

val solves : Obs.Metric.counter
(** ["containment.solves"]: constraint lists solved into a new store by
    {!solve}: one per scan's seeds.  Nothing else is solved: states, CQs
    and cases only add to, merge or {!refine} a store. *)

val consistent : store -> bool
(** Whether the store is satisfiable (per-variable reasoning: type-set
    intersection, interval emptiness with exact integer rounding, finite
    boolean domains, null conflicts). *)

val entails_store : Types.t -> store -> (int -> term option) -> store -> bool
(** [entails_store types store image target]: whether every fact of
    [target] about each of its variables [x] holds of [image x] — entailed
    by [store] (every assignment satisfying [store] satisfies it) when the
    image is a variable, true of its value (and, for [Ty_in], of the type a
    string names, {!Types.mem}) when it is a constant.  A variable without
    an image fails.  The checker asks it of a case's store, a superset CQ's
    store and the homomorphism between them: the atom-level test of
    homomorphism checking. *)

val type_partition :
  Types.t -> against:cq list -> Datum.Name_set.t -> Datum.Name_set.t list
(** [type_partition types ~against tys] is the coarsest partition of [tys]
    that the superset CQs [against] can observe: two types share a class
    exactly when they lie in the same per-variable type sets of [against]'s
    {!facts} and equal the same string constants of [against] (in heads,
    atom arguments or the constants of its facts).  Each class is therefore
    inside or disjoint from every such set.  The classes are non-empty and
    their union is [tys].  A string constant that names no type numbered in
    [types] is in no type set and splits no class. *)

val type_cases : Types.t -> against:cq list -> cq -> cq list
(** Split a subset-side conjunctive query into one case per class of
    {!type_partition} for each of its dynamic-type variables; a variable
    with one class is not split.  The union of the cases is equivalent to
    the original CQ.  A case's store is the CQ's store {!refine}d by the
    case's class of each split variable; nothing is solved again.

    Splitting makes the homomorphism test complete for coverage checks such
    as [IS OF P ⊆ IS OF (ONLY P) ∪ IS OF E] — the disjunctions Algorithm 2
    introduces — and the coarse split is as complete as one case per
    concrete type.  A homomorphism from a superset CQ reads a case's store
    only through {!entails_store}, and of a type variable [u] it can only
    ask [Ty_in (u, S)] for a per-variable set [S] of [against]: the case's types for [u] are
    one class [K], and [K ⊆ S] holds exactly when every type of [K] is in
    [S], since [K] is inside or disjoint from [S].  Every other fact of the
    store is the same in the class case and in each per-type case.  So a
    superset CQ maps onto the class case exactly when it maps onto each of
    the class's per-type cases, and the checker's verdict is the same.
    Partial application [type_cases types ~against] computes the observable
    sets once. *)

val equal_term : term -> term -> bool

(** {1 Test seam} *)

module For_tests : sig
  val normalize_full_width :
    Types.t -> Query.Env.t -> role -> Query.Algebra.t -> (output, string) result
  (** {!normalize} with every scan binding (and seeding) every column of its
      source, the normalization before atoms were narrowed.  Only tests
      reach it, through [Check.For_tests.subset ~full_width:true]. *)

  val equal_store : store -> store -> bool
  (** Whether two stores hold the same facts per variable, up to the order
      of disequalities and, on a variable with two clashing equalities,
      which one is kept. *)
end
