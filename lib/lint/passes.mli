(** The mapping analysis of the linter.

    Every pass is a cheap syntactic/schema analysis — no containment
    reasoning, no cell enumeration — over the client schema, the store
    schema and the mapping fragments.  The compiled views are {!Wf}'s
    artifact.  The catalog:

    {v
    code  severity  finding
    L001  error     entity attribute mapped by no fragment of its set
    L002  error     non-nullable column of a mapped table written by no fragment
    L003  warning   nullable attribute feeds a non-nullable column
    L004  error     column domain does not subsume the paired attribute's domain
    L005  error/    table primary key not covered by key attributes or
          warning   store-side constants (warning: covered by a non-key attribute)
    L006  warning   overlapping fragments write conflicting data to a shared column
    L007  warning   fragment condition is unsatisfiable (contradictory conjuncts)
    L009  warning   association mapped without a supporting foreign key
    L010  info      table not mapped by any fragment
    L012  error     fragment fails basic well-formedness (broken reference etc.)
    v}

    Severity encodes the soundness contract (see {!Diag}): the error-level
    passes only fire on mappings that [Fullc.Validate] would reject. *)

val run : Query.Env.t -> Mapping.Fragments.t -> Diag.t list
(** Every finding of the catalog, sorted.  The per-fragment passes (L003,
    L004, L005, L007, L012) run under a [lint.fragments] span, the passes
    that need the fragment set or the schemas as a whole (L001, L002, L006,
    L009, L010) under a [lint.model] span.

    Every lookup reads the schemas and fragments in place
    ({!Mapping.Fragment.mem_col}, {!Mapping.Coverage.writes},
    {!Edm.Schema.hierarchy_attribute}, ...) and allocates at most its
    answer; the fragments of a table (L002, L006, L010) and of a set
    (L001) come from {!Mapping.Fragments.on_table} and
    {!Mapping.Fragments.of_set}.  What many lookups share is built once
    per call: each hierarchy's snapshot (its key, and per type in
    [subtypes] order the set of the type and its ancestors, of its
    attributes and of those declared NOT NULL on its chain), shared by
    both spans; and, one set at a time, the attributes its fragments map
    (L001).  Sound because one call reads one schema pair
    and one fragment set.  On loaded customer a call allocates 0.6 MB (3.4
    MB when each lookup rebuilt its lists). *)
