(** Global switch gating span collection.

    Disabled by default: [Span.with_] degrades to a bare function call (one
    atomic load, no allocation), keeping benchmark timings honest.  Typed
    counters ({!Metric}) are not gated — they are single atomic increments. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool
