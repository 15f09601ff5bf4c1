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

    Every operator increments an [ivm.rows.*] counter by the absolute row
    count of the delta it emits; a propagation runs under an
    ["ivm.propagate"] span carrying the fed row count. *)

val propagate :
  Plan.t -> State.t -> feed:Multiset.t Plan.Src_map.t -> State.t * (string * Multiset.t) list
(** Push one batch of base deltas (per client source) through every table
    plan.  Returns the updated state and, per table in plan order, the
    {e set-level} delta of the materialized table: [-1] rows left the table,
    [+1] rows entered it. *)
