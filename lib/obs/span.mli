(** Hierarchical timing spans.

    [with_ ~name f] times [f] and records the span under the currently open
    span of the same domain (or as a new root), with the words the calling
    domain allocated meanwhile ({!alloc_mb}).  Collection is gated by
    {!Switch}: when disabled, [with_] is [f ()] — no span is allocated and
    no counter is read.
    Completed roots accumulate in a shared, mutex-protected buffer until
    {!reset}; open-span stacks are domain-local. *)

type t

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a

(** Attach an integer attribute to the innermost open span (no-op when
    collection is disabled or no span is open); its string is only built
    while spans are collected. *)
val tag : string -> int -> unit

(** Completed top-level spans, oldest first. *)
val roots : unit -> t list

(** Drop all completed spans and any open stack of the calling domain. *)
val reset : unit -> unit

val name : t -> string
val attrs : t -> (string * string) list
val children : t -> t list
val start_s : t -> float
val duration_s : t -> float

(** Megabytes the calling domain allocated while the span was open, its
    children's included: the words of [Gc.minor_words] plus those allocated
    directly in the major heap (major words less promoted ones), read at
    entry and exit.  The span's own bookkeeping is a few words of it; [nan]
    while the span is open. *)
val alloc_mb : t -> float

(** Duration minus the summed durations of direct children. *)
val self_s : t -> float

(** Pre-order fold over every completed root and its descendants. *)
val fold_all : ('a -> t -> 'a) -> 'a -> 'a
