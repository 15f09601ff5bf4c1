(** Store-side cell partitioning — the full compiler's deliberate
    exponential.

    For each table, the compiler partitions the table's row space into
    {e cells}: one per boolean valuation of the store-side condition atoms
    of the fragments mapped to the table (discriminator equalities, null
    tests).  Following the cost model the paper reports for Entity
    Framework — "when [the number of entity types mapped into one table
    with a discriminator] exceeds 32, compilation is very slow" (Section
    1.1, Fig. 4) — the enumeration is the naive, complete one: all [2^k]
    valuations are generated and each is then tested for satisfiability.
    No semantic pruning is attempted between independent atoms; exploiting
    the validated pre-change mapping to avoid this enumeration is exactly
    the incremental compiler's advantage.

    With per-type tables [k] is 0 or 1 and the partitioning is trivial;
    with a TPH hierarchy of [n] types in one table [k = n] and full
    compilation degrades exponentially, reproducing the shape of Fig. 4. *)

type cell = {
  assignment : (Query.Cond.t * bool) list;
      (** Atom valuations, in the table's atom order. *)
  active : Mapping.Fragment.t list;
      (** Fragments whose store condition evaluates to true in this cell. *)
}

val fold :
  Query.Env.t -> Mapping.Fragments.t -> table:string ->
  init:'a -> f:('a -> cell -> 'a) -> ('a, string) result
(** Visits every satisfiable cell of the table, in valuation order, without
    materializing the (potentially huge) cell list.  A valuation is
    satisfiable when, column by column, one of the column's
    {!Query.Cover.candidates} (over its store domain, [NULL] included)
    realizes it; exact for the store condition language.  Fails when the
    atom count exceeds the hard bound of 26 atoms (2^26 valuations),
    mirroring the practical infeasibility the paper reports past 32
    types. *)
