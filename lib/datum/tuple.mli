(** Positional rows: a row's values as an array, one per slot of a layout
    (the column at each slot), the form rows take in the plan runtimes and
    in maintained store images.

    A row may be shorter than its layout: past its end, every slot reads
    [NULL].  So an unpadded row equals its padded form, and each row has
    one canonical form under {!compare}. *)

type t = Value.t array

val get : t -> int -> Value.t
(** The value at a slot; [NULL] past the row's end. *)

val compare : t -> t -> int
(** Slot by slot under [Value.compare], a slot past a row's end reading
    [NULL]. *)

module Map : Map.S with type key = t
