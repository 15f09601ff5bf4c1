(** The join kinds, and the join specs of the physical runtimes.

    One definition of the join kinds and join columns.  A view's
    {!Algebra.Join} node carries its kind; [Exec.Planner] puts a spec on
    every join of a plan, beside the slots it resolves the join columns to;
    [Exec.Run] and [Ivm.Engine] both build their join rows from those slots.

    [Eval.rows] shares the kind type, not the join code: it stays the
    independent nested-loop oracle both runtimes are tested against. *)

type kind =
  | Inner
  | Left  (** every left row, padded with [NULL] when nothing matches *)
  | Full  (** [Left], plus every unmatched right row padded with [NULL] *)

val equal_kind : kind -> kind -> bool

type t = {
  kind : kind;
  on : string list;  (** the equality columns; [[]] makes a cross join *)
}

val make : kind -> on:string list -> t
