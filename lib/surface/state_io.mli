(** Persistence for compiled states.

    The paper's standalone compiler reads the pre-evolved model and its
    Entity SQL query/update views from the file EF generated, and writes the
    evolved views back (Section 4.1, Fig. 7).  [State_io] plays that role
    here: a compiled {!Core.State.t} — schemas, fragments, and both view
    sets — serializes to an s-expression document and loads back losslessly
    (a tested roundtrip), so an incremental session can resume without
    re-running the full compiler. *)

val save : Core.State.t -> string
val load : string -> (Core.State.t, string) result
