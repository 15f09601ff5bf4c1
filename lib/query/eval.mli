(** Operational semantics of the algebra over concrete states.

    Evaluation is the ground truth against which everything else is checked:
    mapping semantics, view correctness, containment soundness and the
    roundtripping criterion are all defined (and property-tested) in terms of
    [rows].  Joins here are plain nested loops: [rows] shares {!Join}'s kind
    type, not its join code, and is the oracle the physical runtimes built
    on that kernel ([Exec.Run], [Ivm.Engine]) are differentially tested
    against. *)

type db = Db.t = { client : Edm.Instance.t; store : Relational.Instance.t }
(** {!Db.t}, the instance pair, under this module's name for the oracles'
    callers.  The runtimes ([Exec.Idb]) name it as [Query.Db.t] and so
    reach nothing of the evaluator. *)

val client_db : Edm.Instance.t -> db
val store_db : Relational.Instance.t -> db

val rows : Env.t -> db -> Algebra.t -> Datum.Row.t list
(** Bag-semantics evaluation.  Entity-set scans pad attributes absent from an
    entity's type with [NULL] and bind {!Env.type_column}; joins never match
    on [NULL]; outer joins pad the missing side with [NULL]. *)

val rows_set : Env.t -> db -> Algebra.t -> Datum.Row.t list
(** [rows] deduplicated and sorted — set semantics, the basis of query
    equivalence and containment. *)

val subset : Env.t -> db -> Algebra.t -> Algebra.t -> bool
(** Whether the first query's answer is contained in the second's on this
    database (set semantics) — the empirical side of containment checks. *)
