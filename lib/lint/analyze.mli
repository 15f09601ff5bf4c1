(** The linter's front door: run every analysis pass over a model.

    [run env frags] executes the per-fragment passes, the whole-model
    passes and — when compiled views are supplied — the view passes and the
    {!Wf} structural checks, returning the sorted, de-duplicated diagnostic
    list.  The whole run is wrapped in an [Obs] span ([lint.analyze]) with
    one child span per pass: [lint.fragments], [lint.model], [lint.views]
    and [lint.wf] (the last two empty without views).  When spans are
    collected, [lint.views] and [lint.wf] carry [tree_nodes] and
    [distinct_nodes]: the views' algebra nodes counted as trees and once
    per physically distinct subterm, which is what those passes visit. *)

val run :
  ?views:Query.View.query_views * Query.View.update_views ->
  Query.Env.t -> Mapping.Fragments.t -> Diag.t list
