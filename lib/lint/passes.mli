(** The static analysis passes of the mapping linter.

    Every pass is a cheap syntactic/schema analysis — no containment
    reasoning, no cell enumeration — over the client schema, the store
    schema, the mapping fragments, and (for the view passes) the compiled
    views.  The catalog:

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
    L008  warning   dead (unreachable) CASE branch in a view constructor
    L009  warning   association mapped without a supporting foreign key
    L010  info      table not mapped by any fragment
    L011  warning   unsatisfiable selection inside a compiled view
    L012  error     fragment fails basic well-formedness (broken reference etc.)
    v}

    Severity encodes the soundness contract (see {!Diag}): the error-level
    passes only fire on mappings that [Fullc.Validate] would reject. *)

(** {1 Per-fragment passes} *)

type memo
(** A per-run cache of hierarchy snapshots (subtypes, attribute names,
    domains, nullability, keys), shared across the fragments of one analysis
    so the schema accessors are not re-walked 270 times.  Create one per run
    and never reuse it across schema changes. *)

val new_memo : unit -> memo

val fragment_diags : ?memo:memo -> Query.Env.t -> Mapping.Fragment.t -> Diag.t list
(** L003, L004, L005, L007, L012 for one fragment. *)

(** {1 Whole-model passes} *)

val model_diags : ?memo:memo -> Query.Env.t -> Mapping.Fragments.t -> Diag.t list
(** L001, L002, L006, L009, L010 — passes that need the fragment set or the
    schemas as a whole. *)

(** {1 Compiled-view passes} *)

val view_diags :
  Query.Env.t -> Query.View.query_views -> Query.View.update_views -> Diag.t list
(** L011 over every compiled view, and L008 over the constructors of the
    hierarchy-root entity views, the association views, and the update views.
    Per-subtype entity views restrict the root's CASE chain, so the roots see
    every branch; skipping the subtype copies keeps the pass linear in the
    model rather than in (branches x subtypes).  L011 runs once per
    physically distinct subterm and is reported at every view containing
    it, as {!Wf} describes.  (Structural well-formedness is {!Wf}'s job.) *)
