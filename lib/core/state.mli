(** The incremental compiler's working state: a validated mapping together
    with its compiled views — exactly the input the problem statement of
    Section 2.3 assumes ("mapping M roundtrips, and M has been compiled
    into a set of query and update views").

    States are immutable; {!Engine.apply} threads them through SMOs, so an
    aborted compilation simply keeps the previous state. *)

type t = {
  env : Query.Env.t;
  fragments : Mapping.Fragments.t;
  query_views : Query.View.query_views;
  update_views : Query.View.update_views;
}

val of_compiled : Query.Env.t -> Mapping.Fragments.t -> Fullc.Compile.t -> t
(** Seed the incremental compiler from a full compilation — the paper's
    bootstrap: the first compilation is always full. *)

val bootstrap : Query.Env.t -> Mapping.Fragments.t -> (t, string) result
(** [of_compiled] composed with {!Fullc.Compile.compile}. *)
