(** The incremental compiler's working state: a validated mapping together
    with its compiled views — exactly the input the problem statement of
    Section 2.3 assumes ("mapping M roundtrips, and M has been compiled
    into a set of query and update views").  The first state comes from a
    saved state or from the full compiler, the baseline, which links this
    library and not the other way round.

    States are immutable; {!Engine.apply} threads them through SMOs, so an
    aborted compilation simply keeps the previous state. *)

type t = {
  env : Query.Env.t;
  fragments : Mapping.Fragments.t;
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
}

val of_compiled : Query.Env.t -> Mapping.Fragments.t -> t -> t
(** [of_compiled env frags st] is [st] with [env] and [frags].  It exists
    only because the end-to-end benchmark's set-up wraps the full
    compiler's result in it; the next change to that benchmark deletes
    it. *)
