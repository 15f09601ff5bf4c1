(** The linter's front door: run every analysis pass over a model.

    [run env frags] executes the per-fragment passes, the whole-model
    passes and — when compiled views are supplied — the view passes and the
    {!Wf} structural checks, returning the sorted, de-duplicated diagnostic
    list.  The whole run is wrapped in an [Obs] span ([lint.analyze]). *)

val run :
  ?views:Query.View.query_views * Query.View.update_views ->
  Query.Env.t -> Mapping.Fragments.t -> Diag.t list
