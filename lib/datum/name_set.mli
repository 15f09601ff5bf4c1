(** Sets of names as bitsets over a numbering.

    A {!numbering} gives each name a number in order of first sight.  A set
    is an [int array] whose word [k] holds the names numbered
    [k * Sys.int_size] to [(k + 1) * Sys.int_size - 1]; its last word is
    non-zero, so two sets are equal exactly when their arrays are, and the
    empty set is [[||]].  Membership, inclusion, intersection and
    difference are word operations; only {!elements} and {!iter_missing}
    read names back.  A set means something only over the numbering it was
    built with.

    Lint numbers the column names of one check; the containment checker
    numbers the entity types of one discharge batch. *)

type numbering

val numbering : int -> numbering
(** An empty numbering, sized for about that many names. *)

val number : numbering -> string -> int
(** The name's number, numbering it first if it has none. *)

val find : numbering -> string -> int option
(** The name's number, if it has one. *)

type t = private int array

val empty : t
val singleton : int -> t

val of_iter : numbering -> ((string -> unit) -> 'a -> unit) -> 'a -> t
(** [of_iter n iter x]: the names [iter] reaches in [x], numbered first, so
    the set is allocated once, at its size. *)

val of_list : numbering -> string list -> t

val mem : numbering -> t -> string -> bool
(** Whether the named name is in the set; a name [n] has not numbered is
    in no set. *)

val is_empty : t -> bool

val at_least_two : t -> bool
(** Whether the set has two or more elements. *)

val subset : t -> t -> bool

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** [union], [inter] and [diff] return one of their arguments, unallocated,
    when it is the result. *)

val compare : t -> t -> int
(** A total order; [0] exactly on equal sets. *)

val elements : numbering -> t -> string list
(** The set's names, in ascending number. *)

val iter_missing : numbering -> (string -> unit) -> t -> t -> unit
(** [iter_missing n f a b] applies [f] to each name of [a] that [b] lacks,
    in ascending number. *)
