(** Named, self-describing proof obligations.

    A validation step of the incremental compiler reduces to containment
    tests ([lhs ⊆ rhs] over [env]'s schemas).  Instead of proving each test
    inline where it arises, the SMO algorithms {e emit} obligations and hand
    the batch to {!Discharge} — the collect-then-discharge split that makes
    the checks schedulable (sequentially or across domains) and uniformly
    observable.  Obligations are immutable values: building one performs no
    proving work. *)

type t = {
  name : string;             (** stable identifier, e.g. ["aa-fk.check-2:Emp"] *)
  env : Query.Env.t;         (** schemas the containment is judged over *)
  lhs : Query.Algebra.t;     (** subset side *)
  rhs : Query.Algebra.t;     (** superset side *)
  on_fail : string;          (** human message if the proof fails *)
}

val make :
  name:string -> env:Query.Env.t -> lhs:Query.Algebra.t -> rhs:Query.Algebra.t ->
  on_fail:string -> t

val discharged : Obs.Metric.counter
(** ["containment.obligations"]: obligations passed to {!discharge}. *)

val name : t -> string
val on_fail : t -> string

val discharge :
  subset:(Query.Env.t -> Query.Algebra.t -> Query.Algebra.t -> (bool, string) result) ->
  t -> (unit, Validation_error.t) result
(** Discharge one obligation with the given prover (normally
    [Check.subset]).  Records the per-obligation span and counter; a
    normalization error is conservatively "not proven".  All discharge paths
    — {!Discharge.run} sequentially or via parallel workers — go through
    this function. *)
