(** The delta-propagation engine: one signed-multiset delta per operator
    of the compiled [Exec.Plan.t] each table plan holds.

    Rows are positional, in the layouts the planner compiled: they enter in
    their source's scan layout ({!Apply}), every operator tests, projects
    and joins them with [Exec.Run]'s row kernel, and they leave the root
    in the table's layout (through the table plan's [into]), the layout of
    DISTINCT's counts and of the table's store image.  No [Datum.Row.t] is
    built here; {!Apply} converts the rows a step changes.

    Delta rules (Δ ranges over {!Multiset} with signed counts):

    - scan of [src] with access path [a], residual filter [f] and fused
      projection [p]: Δout = π[p] σ[a ∧ f] Δsrc, where [Index_eq {col; value}]
      is the selection [col = value] it was planned from ([NULL] matches
      nothing) and [Full_scan] selects everything;
    - [Filter] (σ[c]): Δout = filter c Δin;
    - [Project] (π): Δout = image of Δin under the projection's own slot map
      (counts sum);
    - [Append] (∪ ALL): Δout = Δl + Δr, the right rows permuted into the
      left layout;
    - [Hash_join] (⋈ / ⟕ / ⟗): group both deltas by the values of their
      join-key slots; for each touched key [k], Δout_k = J(L_k + ΔL_k,
      R_k + ΔR_k) − J(L_k, R_k).  All rows of a group share one key, so [J]
      is one of two things: when no value of [k] is [NULL] and both sides
      are non-empty, the cross product ([Exec.Run.matched]) with
      multiplicities multiplied; otherwise the unmatched rows of each side
      the kind preserves (a left row as it is, a right row through
      [Exec.Run.right_only]).  This is exact because equal join values
      imply equal keys, so no match crosses groups, and a keyless join is
      one group.  A table plan's joins are numbered in preorder; the number
      keys the join's groups in the table's {!State.table_state};
    - DISTINCT (applied to the view's query rows, which are the table's
      rows): rows whose multiplicity crosses 0 contribute ±1, and those
      transitions alone update the table's key map ({!State.set_table}).

    Every rule is linear: an empty input delta gives an empty output delta
    and leaves the operator's state alone.  So a table plan that scans no
    source the feed changes is skipped, exactly: its delta is empty and its
    state unchanged.  A propagation costs the delta plus the plans it
    reaches ({!Plan.readers}), not the whole plan.

    Counters, each incremented by the absolute row count of a delta:
    [ivm.rows.scan] the source delta a scan reads; [ivm.rows.select] what
    a scan's selection (an [Index_eq] access or a residual filter) or a
    [Filter] keeps; [ivm.rows.project] what a scan's fused projection or a
    [Project] emits; [ivm.rows.join] and [ivm.rows.union] what a join and a
    union emit; [ivm.rows.distinct] the query rows crossing 0.  A scan without a
    selection or a projection ticks neither counter.  A propagation runs
    under an ["ivm.propagate"] span carrying the fed row count
    ([rows.fed]) and the number of table plans visited ([tables]).

    {!init} is the bulk form of the same rules, for a first state: it
    evaluates each table plan that reads a non-empty source once, over
    the sources' full row lists.  Scans, [Filter] and [Project] map the
    list, [Append] concatenates, a [Hash_join] groups each input by join
    key once (the groups are its state) and emits the [J] of each key's
    groups, and DISTINCT counts the query rows.  From the empty state with
    every row fed at [+1], each delta rule above computes exactly this
    (the counts and key map built in one fold, {!State.init_table}):
    [J(∅, ∅)] is empty, so a join's delta is [J] of the new groups, and
    every count crossing 0 does so upward, once per distinct row.  So
    [init] gives the state and counter ticks that {!propagate} gives for
    that feed. *)

val propagate :
  Plan.t ->
  State.t ->
  feed:Multiset.t Plan.Src_map.t ->
  State.t * (string * Multiset.t) list
(** Push one batch of base deltas (per client source, in its scan layout)
    through the table plans that read a changed source.  Returns the
    updated state and, per visited table in plan order, the {e set-level}
    delta of the materialized table, in the table's layout: [-1] rows left
    the table, [+1] rows entered it.  Tables not listed are unchanged. *)

val init : Plan.t -> State.t -> rows:Exec.Idb.row list Plan.Src_map.t -> State.t
(** The tables' first state from the full rows of each client source (a
    row list per source in its scan layout, no row twice): what
    {!propagate} gives from [State.empty] for the feed holding each of
    those rows at [+1], built without deltas.  The bases of [st] are kept
    as they are; its tables must be empty.  Tags the enclosing span with
    [rows.fed] and [tables], as {!propagate} tags its own. *)

(** {1 Test seam} *)

module For_tests : sig
  val table_delta :
    Multiset.t Plan.Src_map.t -> State.t -> Plan.table_plan -> Multiset.t * State.t
  (** The delta rules of one table plan: its set-level delta for [feed] and
      the state with its table updated, whether or not [feed] reaches it.
      {!propagate} applies it to the plans the feed reaches; only tests call
      it, to apply it to every plan and check that skipping is sound. *)
end
