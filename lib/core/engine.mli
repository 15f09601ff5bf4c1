(** The incremental mapping compiler's entry point — the architecture of
    Fig. 7: take a validated, compiled state, apply one SMO, and either
    produce the evolved state (new schemas, adapted fragments, incrementally
    recompiled query and update views) or abort with the previous state
    intact.

    [?jobs] sets the degree of parallelism for discharging the SMO's
    containment obligations (default 1).
    Verdicts and failure messages are identical for every [jobs] value.
    Failures are structured {!Containment.Validation_error.t} values tagged
    with the SMO kind; [Containment.Validation_error.show] renders the same
    message the string-errored API used to produce. *)

val apply :
  ?jobs:int -> State.t -> Smo.t -> (State.t, Containment.Validation_error.t) result

val apply_all :
  ?jobs:int -> State.t -> Smo.t list -> (State.t, Containment.Validation_error.t) result
(** Left-to-right; the first failure aborts the whole sequence. *)

type timing = {
  smo : string;                           (** {!Smo.name} *)
  seconds : float;
  containment : Obs.Metric.snapshot;
      (** checker work during the SMO: the deltas of the [containment.*]
          counters of {!Containment.Check} and {!Containment.Obligation} *)
}

val apply_timed :
  ?jobs:int -> State.t -> Smo.t -> (State.t * timing, Containment.Validation_error.t) result
(** Wall-clock and containment-checker accounting for one application — the
    measurement underlying Figs. 9 and 10. *)
