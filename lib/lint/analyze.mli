(** The linter's front door: one analysis per artifact.

    [run env frags] runs {!Passes.run} over the mapping and — when compiled
    views are supplied — {!Wf.check} over the views, returning the sorted,
    de-duplicated diagnostic list.  The whole run is wrapped in an [Obs]
    span ([lint.analyze]) with the children [lint.fragments] and
    [lint.model] (opened by {!Passes.run}) and [lint.views] (empty without
    views).  When spans are collected, [lint.views] carries [tree_nodes] and
    [distinct_nodes]: the views' algebra nodes counted as trees and once per
    physically distinct subterm, which is what {!Wf.check} visits. *)

val run :
  ?views:Query.View.query_views * Query.View.update_views ->
  Query.Env.t -> Mapping.Fragments.t -> Diag.t list
