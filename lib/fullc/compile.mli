(** The full (non-incremental) mapping compiler — the paper's baseline.

    Pipeline: generate update views, run full validation (including the
    exponential cell partitioning of {!Cells}), then generate query views.
    Compilation aborts on validation failure without producing views. *)

type t = {
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
  report : Validate.report;
}

val compile :
  ?validate:bool -> ?optimize:bool -> ?jobs:int ->
  Query.Env.t -> Mapping.Fragments.t -> (t, string) result
(** [?validate] defaults to [true]; benchmarks use [~validate:false] to
    isolate view-generation cost.  [?optimize] (default false) runs the
    Section-6 view optimizer ({!Optimize}) during view generation.
    [jobs] is ignored: validation proves its obligations on the calling
    domain.  The argument stays only because the end-to-end benchmark
    passes [~jobs:1]. *)
