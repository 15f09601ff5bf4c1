(** Typed counters and gauges.

    Metrics are registered by name (idempotent — asking twice returns the
    same cell) and are always live: an increment is one [Atomic.fetch_and_add]
    whether or not span collection is enabled. *)

type counter
type gauge

val counter : string -> counter
val incr : ?by:int -> counter -> unit
val value : counter -> int
val counter_name : counter -> string
val reset_counter : counter -> unit

val gauge : string -> gauge
val set : gauge -> float -> unit

type snapshot = { counters : (string * int) list; gauges : (string * float) list }

(** All registered metrics, sorted by name. *)
val snapshot : unit -> snapshot

(** [diff before after]: counter deltas ([after] order); gauges keep their
    [after] value — a gauge is a level, not a rate. *)
val diff : snapshot -> snapshot -> snapshot

(** Zero every registered metric (registrations survive). *)
val reset : unit -> unit

val pp : Format.formatter -> snapshot -> unit
