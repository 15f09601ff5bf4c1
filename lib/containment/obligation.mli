(** Named, self-describing proof obligations.

    A validation step of the incremental compiler reduces to containment
    tests ([lhs ⊆ rhs] over [env]'s schemas).  Instead of proving each test
    inline where it arises, the SMO algorithms {e return} obligations, and
    [Core.Engine] hands each SMO's batch to {!Discharge} — the
    collect-then-discharge split that makes the checks batchable and
    uniformly observable.  Obligations are immutable values: building one
    performs no proving work and renders no string.  {!discharge} forces the
    name only while {!Obs} records spans or when the proof fails, and the
    message only when it fails.  Two domains forcing one suspension at once
    raise, so one domain at a time may prove or render an obligation. *)

type t = {
  name : string Lazy.t;      (** stable identifier, e.g. ["aa-fk.check-2:Emp"] *)
  env : Query.Env.t;         (** schemas the containment is judged over *)
  lhs : Query.Algebra.t;     (** subset side *)
  rhs : Query.Algebra.t;     (** superset side *)
  on_fail : string Lazy.t;   (** human message if the proof fails *)
}

val make :
  name:string Lazy.t -> env:Query.Env.t -> lhs:Query.Algebra.t -> rhs:Query.Algebra.t ->
  on_fail:string Lazy.t -> t

val discharged : Obs.Metric.counter
(** ["containment.obligations"]: obligations passed to {!discharge}. *)

val name : t -> string
val on_fail : t -> string

val discharge :
  prove:(Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result) ->
  t -> (unit, Validation_error.t) result
(** Prove one obligation with [prove env lhs rhs].  Records the
    per-obligation span and counter; a normalization error is
    conservatively "not proven".  {!Discharge.run}, the one prover path,
    proves through this function with its batch's prover. *)
