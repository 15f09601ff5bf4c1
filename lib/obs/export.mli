(** Exporters over the completed spans of {!Span}. *)

(** Indented tree of every completed root: name, duration, allocation
    ({!Span.alloc_mb}), attributes. *)
val pp_tree : Format.formatter -> unit -> unit

type agg = { count : int; total_s : float; self_s : float; alloc_mb : float }
(** [alloc_mb] sums the path's spans' {!Span.alloc_mb}, children's
    allocation included, as [total_s] sums their durations. *)

(** Roll-up by span path over all completed spans, in order of first
    appearance.  A span's path is the names from its root down to it,
    joined by [/] ([smo:AEP-2p/discharge.batch/containment.obligation]), so
    the same phase under different parents gets one row each. *)
val aggregate : unit -> (string * agg) list

(** The roll-up as a phase/count/total/self/alloc table. *)
val pp_aggregate : Format.formatter -> unit -> unit

(** Chrome [trace_event] JSON (complete "X" events, microsecond timestamps
    rebased to the first span) — loadable in about:tracing or Perfetto. *)
val trace_json : ?process:string -> unit -> string
