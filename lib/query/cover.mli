(** Closed-form coverage reasoning over client conditions.

    The validation step of [AddEntityPart] (Section 3.3 of the paper) must
    decide whether a disjunction of partition conditions is a tautology over
    the attributes of a type — e.g. [(age >= 18) ∨ (age < 18)], or
    [(gender = 'M') ∨ (gender = 'F')] over a closed M/F domain.  The full
    compiler's coverage step asks the same question per concrete type.

    Decision procedure: resolve the type atoms against the fixed exact type
    and simplify; if that leaves [TRUE] or [FALSE] the answer is read off,
    otherwise the residual attribute condition is evaluated on every row of
    a finite grid, the product of each attribute's {!candidates}.

    The test is exact.  The constants an attribute is compared with cut its
    domain into regions: each constant, and the open interval between two
    adjacent constants, below the least and above the greatest.  Every value
    of one region compares the same way with every constant, so an
    attribute condition (single-column comparisons and null tests under AND
    and OR) holds for some value of a region exactly when it holds for any
    one value of it.  The candidates hold one value of every non-empty
    region, and [NULL] when the attribute may be null. *)

val candidates :
  Datum.Domain.t option -> nullable:bool -> Datum.Value.t list -> Datum.Value.t list
(** [candidates domain ~nullable constants] — one value of every region the
    [constants] cut the [domain] into, ascending, after [NULL] when
    [nullable]:
    - [Int]: each constant [n], with [n - 1] and [n + 1];
    - [Decimal]: each constant, a value between each adjacent pair (their
      midpoint), and [Float.pred] of the least and [Float.succ] of the
      greatest; and the [Int] candidates of the [Int] constants, since a
      Decimal attribute also holds Int values, and these order below every
      Decimal value;
    - [String]: each constant [c] with its least successor [c ^ "\x00"],
      and [""], the least string;
    - [Bool] and [Enum]: the whole domain;
    - with no constants of the domain (or of the Int or Decimal part of a
      Decimal one), one value of it ([0], [0.], [""]).
    The values order by domain first, so a constant of another domain (an
    [Int] one aside, for [Decimal]) compares alike with all of the
    attribute's values and adds nothing.  [None] (an attribute the type
    does not have, which reads as [NULL]) has no values. *)

val tautology : Edm.Schema.t -> etype:string -> Cond.t -> bool
(** [tautology schema ~etype c] — does [c] hold for every possible entity of
    exact type [etype]? *)

val satisfiable : Edm.Schema.t -> etype:string -> Cond.t -> bool
(** Dual check over the same grid: can some entity of exact type [etype]
    satisfy [c]?  Used to prune empty partitions. *)

val implies : Edm.Schema.t -> etype:string -> Cond.t -> Cond.t -> bool
(** [implies schema ~etype c1 c2] — over entities of exact type [etype],
    does [c1] entail [c2]?  Decided on the grid of [c1 AND c2], whose
    regions refine those of either side.  ([tautology] is [implies True].) *)
