(** Render semantic objects back to the surface syntax, such that
    [Parser.model ∘ Print_dsl.model] is the identity on well-formed models
    (tested by the roundtrip property in the surface test suite). *)

val cond : Query.Cond.t -> string
val model : Query.Env.t -> Mapping.Fragments.t -> string

val smo : Core.Smo.t -> string
(** Render an SMO as a script statement; [Parser.script ∘ smo] recovers the
    SMO (tested), so inferred diffs can be saved and replayed. *)

val script : Core.Smo.t list -> string
