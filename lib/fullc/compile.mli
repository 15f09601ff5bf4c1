(** The full (non-incremental) mapping compiler — the paper's baseline.

    Pipeline: generate update views, run full validation ({!Validate},
    including the exponential cell partitioning of {!Cells}), then generate
    query views, each with {!Mapping.Views}.  Compilation aborts on
    validation failure without producing views.  The result is the
    incremental compiler's start state: the first compilation is always
    full. *)

val compile :
  ?validate:bool -> ?optimize:bool -> ?jobs:int ->
  Query.Env.t -> Mapping.Fragments.t -> (Core.State.t, string) result
(** [compile env frags] is the state of [env] and [frags] (both returned
    physically) with their views.  [?validate] defaults to [true];
    benchmarks use [~validate:false] to isolate view-generation cost, and a
    caller that wants {!Validate.report}'s counts runs {!Validate.run}
    itself.  [?optimize] (default false) builds the views with the
    Section-6 rewrites of {!Mapping.Views}.  [jobs] is ignored: validation
    proves its obligations on the calling domain.  The argument stays only
    because the end-to-end benchmark passes [~jobs:1]. *)
