(** The delta-propagation engine: one signed-multiset delta per operator.

    Delta rules (Δ ranges over {!Multiset.t} with signed counts):

    - σ[c]:   Δout = filter c Δin
    - π:      Δout = image of Δin under the projection (counts sum)
    - ∪ (ALL): Δout = Δl + Δr
    - ⋈ / ⟕ / ⟗: group both deltas by join key; for each touched key [k],
      Δout_k = J(L_k + ΔL_k, R_k + ΔR_k) − J(L_k, R_k).  All rows of a group
      share one key, so [J] is one of two things: when [Query.Join.key]
      accepts [k] (every join column present and non-[NULL]) and both sides
      are non-empty, the cross product with multiplicities multiplied;
      otherwise the [Query.Join.pad]ding of each side the kind preserves.
      This is exact because equal join values imply equal key projections,
      so no match crosses groups, and a keyless join is one group;
    - DISTINCT (applied to query rows, then again to constructed tuples):
      rows whose multiplicity crosses 0 contribute ±1.

    Every rule is linear: an empty input delta gives an empty output delta
    and leaves the operator's state alone.  So a table plan that scans no
    source the feed changes is skipped, exactly: its delta is empty and its
    state unchanged.  A propagation costs the delta plus the plans it
    reaches ({!Plan.readers}), not the whole plan.

    Every operator increments an [ivm.rows.*] counter by the absolute row
    count of the delta it emits; a propagation runs under an
    ["ivm.propagate"] span carrying the fed row count ([rows.fed]) and the
    number of table plans visited ([tables]). *)

val propagate :
  Plan.t -> State.t -> feed:Multiset.t Plan.Src_map.t -> State.t * (string * Multiset.t) list
(** Push one batch of base deltas (per client source) through the table
    plans that read a changed source.  Returns the updated state and, per
    visited table in plan order, the {e set-level} delta of the
    materialized table: [-1] rows left the table, [+1] rows entered it.
    Tables not listed are unchanged. *)
