(** A synthetic stand-in for the paper's real customer model (Section 4.2):
    230 entity types in 18 non-trivial hierarchies — deepest 4 levels,
    largest 95 types — mapped TPT or TPH, with associations mapped to
    non-junction tables.  A full Entity Framework compilation of the real
    model takes 8 hours; Fig. 10 reports the incremental SMO times.

    Substitution note (see DESIGN.md): the model is synthesized
    deterministically from the published statistics.  The TPH hierarchies
    are capped at 22 types so that the full-compilation baseline
    (whose cell enumeration is exponential in the TPH type count) finishes
    in tens of seconds on a laptop rather than hours; the incremental /
    full contrast — the figure's point — is preserved. *)

val generate : unit -> Query.Env.t * Mapping.Fragments.t

val stats : unit -> string
(** A one-line summary: type count, hierarchy count, largest and deepest
    hierarchy, association count. *)

val smo_suite : unit -> (string * Core.Smo.t) list
(** The Fig. 10 primitives over this model, labelled as in the figure. *)

val drop_suite : unit -> (string * Core.Smo.t list * Core.Smo.t) list
(** Shrinking SMOs, each with the {!smo_suite} SMOs that make its state
    from the compiled model: [DROP] drops a leaf of the 95-type TPT
    hierarchy (Set1), [DROP-P] that leaf's attribute, [DROP-A] the
    association Rel27, [DROP-TPH] a leaf of the TPH hierarchy Set2, and
    [DROP-TPC] the TPC type AE-TPC adds below Set4. *)
