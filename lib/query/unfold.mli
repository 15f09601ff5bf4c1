(** View unfolding (Section 1.1): rewrite a client-side query into a
    store-side query by splicing in the query views.

    Entity-set scans are replaced by the hierarchy root's view query;
    [IS OF] conditions directly above an entity-set scan are translated into
    the view's provenance tests via {!Ctor.guard_for} — e.g.
    [IS OF Employee] over the unfolded Fig. 2 view becomes [_from2 = True].
    Association-set scans are replaced by the association view, a bare
    query whose rows are the links.

    Type conditions that sit above a projection which discards the
    provenance flags cannot be translated and are reported as errors; the
    mapping compilers never build such queries. *)

val splice : Env.t -> View.query_views -> Algebra.t -> (Algebra.t, string) result
(** The client query with its scans replaced by the views themselves:
    every spliced view is [==] to its query in [qv], so a caller holding
    tables keyed on the views' nodes can reuse them.  Nothing is
    simplified. *)

val client_query : Env.t -> View.query_views -> Algebra.t -> (Algebra.t, string) result
(** {!splice}, then [Simplify.query]. *)
