(** The join specs of the physical runtimes.

    One definition of the join kinds, the outer-join padding lists and the
    NULL-refusing join key.  [Exec.Planner] puts a spec on every join of a
    plan, and [Exec.Run] reads its kind and join columns.  [Ivm.Engine]
    joins one key group at a time, deciding with {!key} whether the group
    matches and padding with {!pad} when it does not.

    [Eval.rows] deliberately does not use this module: it stays the
    independent nested-loop oracle both runtimes are tested against. *)

type kind = Inner | Left | Full

type t = {
  kind : kind;
  on : string list;  (** the equality columns; [[]] makes a cross join *)
  left_pad : string list;
      (** right-side-only columns NULL-padded onto unmatched left rows
          ([Left]/[Full]) *)
  right_pad : string list;
      (** left-side-only columns NULL-padded onto unmatched right rows
          ([Full] only) *)
}

val make : kind -> on:string list -> left:string list -> right:string list -> t
(** The spec of a join whose sides produce the columns [left] and [right]. *)

val key : string list -> Datum.Row.t -> Datum.Value.t list option
(** The join key of a row: [None] unless every join column is present and
    non-[NULL].  Two rows join exactly when both keys are [Some] and equal
    under [Datum.Value.compare]; with no join columns every key is
    [Some []], so every pair joins. *)

val pad : string list -> Datum.Row.t -> Datum.Row.t
(** Bind every listed column to [NULL] (outer-join padding). *)
