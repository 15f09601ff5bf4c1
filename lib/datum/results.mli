(** Combinators over lists of [result]s.  Each one applies its function to
    the items in list order and stops at the first [Error], which it
    returns. *)

val all_ok : ('a -> (unit, 'e) result) -> 'a list -> (unit, 'e) result

val all_oki : (int -> 'a -> (unit, 'e) result) -> 'a list -> (unit, 'e) result
(** [all_ok] whose function also takes the item's place in the list,
    counting from 0. *)

val collect : ('a -> ('b list, 'e) result) -> 'a list -> ('b list, 'e) result
(** Concatenate the lists emitted per item, preserving emission order (the
    order [Containment.Discharge.run] reports the first failure in). *)
