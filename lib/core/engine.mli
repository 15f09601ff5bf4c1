(** The incremental mapping compiler's entry point — the architecture of
    Fig. 7: take a validated, compiled state, apply one SMO, and either
    produce the evolved state (new schemas, adapted fragments, incrementally
    recompiled query and update views) or abort with the previous state
    intact.

    Each SMO is one validation step: its algorithm compiles the neighborhood
    and returns the containment obligations the new state must satisfy,
    and [apply] proves that batch with one {!Containment.Discharge.run}
    call (inside the SMO's ["smo:"] span) before committing.  Structural
    checks run inside the algorithm, before any proof.
    Failures are structured {!Containment.Validation_error.t} values tagged
    with the SMO kind; [Containment.Validation_error.show] renders the same
    message the string-errored API used to produce. *)

val apply : State.t -> Smo.t -> (State.t, Containment.Validation_error.t) result

val compile :
  State.t -> Smo.t ->
  (State.t * Containment.Obligation.t list, Containment.Validation_error.t) result
(** The SMO's algorithm alone: the evolved state and the obligations
    {!apply} would prove before committing it, unproven.  Structural
    failures are reported untagged. *)

val apply_all : State.t -> Smo.t list -> (State.t, Containment.Validation_error.t) result
(** Left-to-right; the first failure aborts the whole sequence. *)

type timing = {
  smo : string;                           (** {!Smo.name} *)
  seconds : float;
  containment : Obs.Metric.snapshot;
      (** checker work during the SMO: the deltas of the [containment.*]
          counters of {!Containment.Check} and {!Containment.Obligation} *)
}

val apply_timed : State.t -> Smo.t -> (State.t * timing, Containment.Validation_error.t) result
(** Wall-clock and containment-checker accounting for one application — the
    measurement underlying Figs. 9 and 10. *)
