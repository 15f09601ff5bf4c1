(** Typed counters.

    Counters are registered by name (idempotent — asking twice returns the
    same cell) and are always live: an increment is one [Atomic.fetch_and_add]
    whether or not span collection is enabled. *)

type counter

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val value : counter -> int
val counter_name : counter -> string

type snapshot = { counters : (string * int) list; gauges : (string * float) list }
(** [gauges] is a level per name.  No library module registers a gauge, so
    {!snapshot} leaves it empty; callers that build a snapshot themselves
    may fill it. *)

(** All registered counters, sorted by name. *)
val snapshot : unit -> snapshot

(** [diff before after]: counter deltas ([after] order); gauges keep their
    [after] value — a gauge is a level, not a rate. *)
val diff : snapshot -> snapshot -> snapshot

(** Zero every registered counter (registrations survive). *)
val reset : unit -> unit

val pp : Format.formatter -> snapshot -> unit
