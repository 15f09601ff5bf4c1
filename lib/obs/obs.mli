(** Observability for the incremental compiler: hierarchical timing spans,
    typed counters, and exporters (pretty tree, Chrome [trace_event] JSON,
    a roll-up by span path).

    Span collection is off by default ({!Switch}); enable it around a
    workload, then export:

    {[
      Obs.enable ();
      ... compile ...
      Out_channel.with_open_text "trace.json" (fun oc ->
        Out_channel.output_string oc (Obs.Export.trace_json ()))
    ]} *)

module Switch = Switch
module Span = Span
module Metric = Metric
module Export = Export

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Drop completed spans and zero every metric. *)
val reset : unit -> unit
