(** A client state and a store state side by side: the instance pair that
    the evaluator ([Eval]) and the physical runtimes read. *)
type t = { client : Edm.Instance.t; store : Relational.Instance.t }
