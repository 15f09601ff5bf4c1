(** View surgery for a new entity type: Algorithms 1 and 2 (Section 3.1),
    generalized to the horizontal partitions of Section 3.3.
    AddEntityPart passes one fragment per partition; AddEntity is its
    one-partition case with ψ = [TRUE].  Only the new type's neighborhood changes: every
    other query view, and every update view whose conditions the rewrite
    leaves alone, stays physically the same. *)

val add_type :
  phase:string ->
  State.t ->
  Query.Env.t ->
  entity:Edm.Entity_type.t ->
  p_ref:string option ->
  Mapping.Fragment.t list ->
  (State.t * string list, Containment.Validation_error.t) result
(** [add_type ~phase st env' ~entity ~p_ref phis] compiles the new type [E]
    stored by the fragments [phis] (each [IS OF E ∧ ψᵢ] into a table of
    [env'], the evolved environment), and returns the evolved state with
    the types strictly between [E] and [P] (all of [E]'s ancestors when
    [P = NIL]).

    - [E]'s query view: the partitions' store projections (one, or their
      keyed FULL OUTER JOIN with COALESCE-fused attributes and the
      constants each ψᵢ determines), inner-joined with [P]'s previous view
      when [p_ref = Some P]; attributes of [P] are read from [P]'s view.
    - [P] and its ancestors: LEFT OUTER JOIN with the tagged store side and
      an [If (t_E, τ_E, _)] constructor branch; the types strictly between
      [E] and [P]: the aligned UNION ALL.
    - Update views: [π(σ[IS OF E ∧ ψᵢ](set))] for each new table; the
      existing ones, and the fragments, get {!Algo.adapt_cond}.

    The phases are traced as [phase ^ ".query-views"], [".update-views"]
    and [".fragments"].  Validation is the caller's. *)

val query_views :
  State.t ->
  Query.Env.t ->
  e:string ->
  p_ref:string option ->
  between:string list ->
  Mapping.Fragment.t list ->
  (Query.View.query_views, Containment.Validation_error.t) result
(** The query-view half of {!add_type} (Algorithm 1), with [between] the
    types strictly between [E] and [P].  AddEntityTPH calls it with
    [p_ref = None] and [E]'s one discriminator fragment: every ancestor's
    view becomes the aligned UNION ALL with [E]'s tagged rows, and each
    distinct constructor among them is extended once. *)
