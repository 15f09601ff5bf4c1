(** The relational algebra in which mapping fragments and compiled views are
    expressed: project–select over entity sets, association sets and tables,
    plus the join and union operators that view generation introduces
    (Fig. 2 of the paper shows all of them at work).

    A join is one node with a kind ({!Join.kind}): inner, left outer or full
    outer.  Joins are natural equi-joins on an explicit list of shared
    column names — exactly the shape the paper's algorithms build (join on
    key columns after renaming).  In outer joins, missing sides pad with
    [NULL]; full outer joins coalesce the join columns. *)

type source =
  | Entity_set of string
  | Assoc_set of string
  | Table of string

type proj_item =
  | Col of { src : string; dst : string }
      (** [src AS dst]; plain projection when [src = dst]. *)
  | Const of { value : Datum.Value.t; dst : string }
      (** [CAST (v AS _) AS dst] — null padding and provenance flags. *)
  | Coalesce of { srcs : string list; dst : string }
      (** [COALESCE(srcs...) AS dst] — the first non-null source, [NULL] if
          all are null.  The full compiler's generic full-outer-join route
          uses it to fuse per-fragment columns. *)

type t =
  | Scan of source
  | Select of Cond.t * t
  | Project of proj_item list * t
  | Join of Join.kind * t * t * string list
      (** [Join (kind, l, r, on)]: [l] joined to [r] on equal [on] columns. *)
  | Union_all of t * t

val equal : t -> t -> bool
val equal_source : source -> source -> bool
val compare_source : source -> source -> int

val col : string -> proj_item
(** [col a] is [Col {src = a; dst = a}]. *)

val col_as : string -> string -> proj_item
(** [col_as src dst]. *)

val const : Datum.Value.t -> string -> proj_item
val tag : string -> proj_item
(** [tag t] is [true AS t] — the provenance flags of Algorithm 1. *)

val null_as : string -> proj_item
val coalesce : string list -> string -> proj_item
val project_cols : string list -> t -> t
val project_renamed : (string * string) list -> t -> t
(** [(src, dst)] pairs. *)

val align_union : Env.t -> t -> t -> t
(** UNION ALL after padding each side's missing columns with [NULL] — how
    Algorithm 1's line 18 (and Fig. 2) reconciles branches with different
    column sets, and how the full compiler's view optimizer unions disjoint
    branches.  @raise Invalid_argument when {!infer} fails on a side. *)

val dst_of : proj_item -> string

val source_columns : Env.t -> source -> (string list, string) result
(** The columns a scan of the source produces ({!Env.entity_set_columns},
    an association's endpoint keys, or a table's columns in declaration
    order), or an error naming an unknown source: {!infer}'s rule for
    [Scan], and the one map from a source to its columns. *)

val infer : Env.t -> t -> (string list, string) result
(** Output columns, in producer order; also a full well-formedness check:
    sources exist, selected/projected/joined columns are present, type atoms
    only appear over rows that carry {!Env.type_column}, join sides don't
    clash outside the join columns, and union sides agree on columns.

    {b Producer order.}  A scan yields {!source_columns}; a selection its
    input's columns; a projection its items' [dst]s in item order; a join
    its left side's columns, then its right side's other than the join
    columns; a union its left side's.  An error names the first offence in
    that order: a join's first join column one side lacks, else the first
    right column other than a join column that the left side also has; a
    union's message lists both sides in producer order.  The left child's
    error wins over the right's.  Linear in the size of the tree: a join
    chain shares its left lists ({!infer_step}), and the topmost join's
    list is reversed once into producer order. *)

val infer_rev : Env.t -> t -> (string list, string) result
(** {!infer} with the columns in reverse producer order, the form
    {!infer_step} works in: nothing is reversed, even at the root. *)

(** {1 Folds over shared subterms} *)

module Memo : Phys_memo.S with type node := t
(** {!Phys_memo.Make} over queries: one result per physically distinct
    subterm, however many views share it. *)

val infer_step :
  (Env.t -> t -> (string list, string) result) -> Env.t -> t -> (string list, string) result
(** {!infer}'s rule for one node, reaching the children through its first
    argument, over column lists in {e reverse} producer order (the shared
    form): a scan's list is built reversed, a projection's is its items'
    [dst]s reversed, and a join's list is its right side's non-join
    columns, reversed, consed onto its left side's list, which it shares
    ([==] its tail).  So typing a left-deep join chain allocates each right
    side's columns once, not the whole left list at every join.  Verdicts
    and error messages are {!infer}'s.  {!infer_rev} ties it by plain
    recursion; a view analysis over many views ties it through a {!Memo}
    table, so each shared subterm is typed once.  A caller that only tests
    membership uses the lists as they are; one that needs producer order
    reverses what it reads ([List.rev], or a [rev_map] that builds its own
    list in producer order). *)

val typing : ?keep:(t -> bool) -> Env.t -> t -> (string list, string) result
(** {!infer_step} tied through a {!Memo} table, made on the first call:
    each physically distinct subterm (each that [keep] picks, as in
    {!Phys_memo.S.fix}) is typed once for as long as the returned function
    lives, in the shared form, and every scan of one source shares one
    column list.  A discharge batch makes one per schemas;
    AddEntity's namesake test and {!Simplify.query}'s identity test make
    one per call. *)

val sharing : t list -> int * int
(** [(tree, distinct)]: the nodes of the queries counted as trees (each
    shared subterm once per occurrence) and counted once per physically
    distinct node. *)

val columns : Env.t -> t -> string list
(** @raise Invalid_argument when {!infer} fails. *)

val sources : t -> source list
(** Distinct sources scanned, in first-occurrence order. *)

val map_conditions : (Cond.t -> Cond.t) -> t -> t
(** Rewrite every selection condition (used by Algorithm 2 and the fragment
    adaptation of Section 3.1.3).  Sharing-preserving: a subterm whose
    conditions [f] returns physically unchanged comes back physically
    unchanged, so [map_conditions f q == q] when [f] rewrites nothing. *)

val pp : Format.formatter -> t -> unit
