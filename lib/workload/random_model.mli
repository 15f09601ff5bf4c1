(** Randomized-but-valid models, for whole-system property testing.

    [generate ~seed] builds a random client schema (several hierarchies of
    random shapes), a store schema and a mapping, choosing a mapping style
    per hierarchy — TPT, TPC or TPH — plus FK-style associations between
    root types.  Construction guarantees validity (total coverage, fresh
    tables, key alignment), so every generated model must full-compile,
    roundtrip random instances, survive the view optimizer, serialize
    through [Surface.State_io] and reparse through the DSL printer; the test
    suite checks all of that per seed. *)

type profile = {
  hierarchies : int;       (** number of hierarchies, >= 1 *)
  max_types : int;         (** per hierarchy, >= 1 *)
  max_depth : int;
  max_attrs : int;         (** extra attributes per type *)
  assocs : int;            (** FK-style associations between distinct roots *)
}

val generate : ?profile:profile -> seed:int -> unit -> Query.Env.t * Mapping.Fragments.t

