(** Folds over shared terms, memoized on physical identity.

    The incremental compiler builds each new view out of the old views'
    subterms, and the [.imcs] loader keeps that sharing, so the compiled
    views form a DAG.  A fold memoized here computes each physically
    distinct node once per table, however many views reach it.

    Soundness rests on two rules for the caller.  The step function must be
    a function of the node alone, plus whatever it closed over when the
    table was created (an environment fixed for the table's lifetime): a
    node's result is reused for every parent that reaches it.  And the
    results must not depend on where the node was reached from, so anything
    positional (a view's location) is added after the lookup, not stored in
    the table.  Physically equal terms are structurally equal, and
    [Hashtbl.hash] is structural, so the hash agrees with the equality. *)

module type S = sig
  type node
  (** The terms: queries or constructors. *)

  type 'a table
  (** Results by node, compared with [==]. *)

  val create : ?size:int -> unit -> 'a table
  (** An empty table of [size] initial buckets (default 256), grown as
      needed. *)

  val fix : ?keep:(node -> bool) -> 'a table -> ((node -> 'a) -> node -> 'a) -> node -> 'a
  (** [fix tbl step] ties the open-recursive [step] through [tbl]: the
      function it returns computes [step rec x] once per physically distinct
      [x] and looks it up afterwards, and [step] reaches children through
      [rec].  With [keep], only nodes satisfying it are looked up and
      stored; the others are recomputed each time they are reached.  With
      [keep = shared roots] every node is still computed once, and the table
      holds only the results a second parent will ask for.  A [keep] that
      picks the nodes where the real work happens instead leaves the cheap
      walk between them unmemoized and unhashed. *)

  val size : 'a table -> int
  (** Results stored so far. *)

  val mem : 'a table -> node -> bool
  (** [mem tbl x] holds when [x] itself (not a structural copy) has a
      stored result. *)

  val shared : node list -> node -> bool
  (** [shared roots x] holds when [x] is reached more than once from
      [roots]: through two parents, or as a root and a child, or as a root
      given twice.  One traversal of the distinct nodes, up front. *)
end

module Make (T : sig
  type t

  val iter_children : (t -> unit) -> t -> unit
end) : S with type node = T.t
