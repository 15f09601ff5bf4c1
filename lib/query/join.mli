(** The join specs of the physical runtimes.

    One definition of the join kinds and join columns.  [Exec.Planner] puts
    a spec on every join of a plan, beside the slots it resolves the join
    columns to; [Exec.Run] and [Ivm.Engine] both build their join rows from
    those slots.

    [Eval.rows] deliberately does not use this module: it stays the
    independent nested-loop oracle both runtimes are tested against. *)

type kind = Inner | Left | Full

type t = {
  kind : kind;
  on : string list;  (** the equality columns; [[]] makes a cross join *)
}

val make : kind -> on:string list -> t
