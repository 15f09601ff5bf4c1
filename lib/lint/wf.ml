module Cond = Query.Cond
module Algebra = Query.Algebra
module View = Query.View
module Ctor = Query.Ctor

let ( let* ) = Option.bind

(* -- L104: may-NULL dataflow ---------------------------------------------- *)

(* Scan nullability only depends on the scanned source, so one table shared
   by many update views (or one entity set scanned by every view of its
   hierarchy) is resolved once per [check]. *)
let scan_nullability memo env src =
  match Hashtbl.find memo src with
  | r -> r
  | exception Not_found ->
      let client = env.Query.Env.client in
      let r =
        match src with
        | Algebra.Table t ->
            let* tbl = Relational.Schema.find_table env.Query.Env.store t in
            Some
              (List.map
                 (fun (c : Relational.Table.column) -> (c.cname, c.nullable))
                 tbl.Relational.Table.columns)
        | Algebra.Entity_set s ->
            let* root = Edm.Schema.set_root client s in
            let subtys = Edm.Schema.subtypes client root in
            Some
              (List.map
                 (fun c ->
                   if String.equal c Query.Env.type_column then (c, false)
                   else
                     (c, List.exists (fun ty -> Edm.Schema.attribute_nullable client ty c) subtys))
                 (Query.Env.entity_set_columns env s))
        | Algebra.Assoc_set a ->
            let* assoc = Edm.Schema.find_association client a in
            Some (List.map (fun c -> (c, false)) (Edm.Schema.association_columns client assoc))
      in
      Hashtbl.add memo src r;
      r

(* What a query's column may carry: the column is absent, or may be NULL,
   or is never NULL. *)
type nulls = Absent | Null | Not_null

let nulls_of nullable = if nullable then Null else Not_null

let may_null = function Absent | Null -> true | Not_null -> false

let rec scan_nulls n = function
  | [] -> Absent
  | (m, nl) :: rest -> if String.equal m n then nulls_of nl else scan_nulls n rest

(* Whether a conjunct of [c] rules out NULL in column [n]. *)
let rec refines n = function
  | Cond.And (a, b) -> refines n a || refines n b
  | Cond.Is_not_null a -> String.equal a n
  | Cond.Cmp (a, _, v) -> String.equal a n && not (Datum.Value.is_null v)
  | _ -> false

(* Whether every source the query scans resolves; L104 judges only those
   queries (the others are L101's business). *)
let rec resolves scan = function
  | Algebra.Scan src -> Option.is_some (scan src)
  | Algebra.Select (_, q) | Algebra.Project (_, q) -> resolves scan q
  | Algebra.Join (_, l, r, _) | Algebra.Union_all (l, r) -> resolves scan l && resolves scan r

(* Whether column [n] of a query may carry NULL, asked of the one column and
   walked down the query: table scans read column nullability, entity-set
   scans treat an attribute as nullable when any type of the hierarchy lacks
   it or declares it nullable, joins exploit that NULL keys never match,
   outer joins pad the missing side, and COALESCE is null only when all
   sources are.  A column a query binds twice is read at its first binding.
   Only asked of queries that [resolves]. *)
let rec column_nulls scan q n =
  match q with
  | Algebra.Scan src -> ( match scan src with Some cols -> scan_nulls n cols | None -> Absent)
  | Algebra.Select (c, sub) -> (
      match column_nulls scan sub n with Null when refines n c -> Not_null | r -> r)
  | Algebra.Project (items, sub) -> bound scan sub n items
  | Algebra.Join (kind, l, r, on) -> (
      let joined = List.mem n on in
      match column_nulls scan l n with
      | Absent -> (
          (* A right column other than a join column; an outer join pads it
             with NULL. *)
          if joined then Absent
          else
            match (kind, column_nulls scan r n) with
            | _, Absent -> Absent
            | Query.Join.Inner, rn -> rn
            | (Left | Full), _ -> Null)
      | ln -> (
          match kind with
          | Query.Join.Inner -> if joined then Not_null else ln
          | Left -> ln
          | Full -> if (not joined) || ln = Null then Null else nulls_of (source_null scan r n)))
  | Algebra.Union_all (l, r) -> (
      match column_nulls scan l n with Not_null -> nulls_of (source_null scan r n) | ln -> ln)

(* The first item of a projection that binds [n], over [sub]. *)
and bound scan sub n = function
  | [] -> Absent
  | item :: rest when not (String.equal (Algebra.dst_of item) n) -> bound scan sub n rest
  | Algebra.Col { src; _ } :: _ -> nulls_of (source_null scan sub src)
  | Algebra.Const { value; _ } :: _ -> nulls_of (Datum.Value.is_null value)
  | Algebra.Coalesce { srcs; _ } :: _ -> nulls_of (List.for_all (source_null scan sub) srcs)

(* Whether a source column may be NULL; an absent one reads as NULL. *)
and source_null scan q n = may_null (column_nulls scan q n)

(* Each NOT NULL column of the table that the view's query may fill with
   NULL; a column the query lacks is L105's business. *)
let update_view_null_diags env scan tname q =
  match Relational.Schema.find_table env.Query.Env.store tname with
  | Some tbl when resolves scan q ->
      List.filter_map
        (fun (c : Relational.Table.column) ->
          if (not c.nullable) && column_nulls scan q c.cname = Null then
            Some
              (Diag.makef ~code:"L104" ~severity:Diag.Warning ~loc:(Diag.Update_view tname)
                 "column %s is NOT NULL but the update view may produce NULL there \
                  (outer-join padding or nullable source)"
                 c.cname)
          else None)
        tbl.Relational.Table.columns
  | _ -> []

(* -- L011, L101, L102, L103: the typed fold ---------------------------------- *)

(* The columns a projection binds twice (asked only where [infer] fails). *)
let dup_dsts items =
  let dsts = List.map Algebra.dst_of items in
  List.sort_uniq String.compare
    (List.filter (fun d -> List.length (List.filter (String.equal d) dsts) > 1) dsts)

(* The view fold's result for a subterm: [Algebra.infer]'s verdict, its
   L011, L102 and L103 findings, and its columns.  These are [infer]'s list
   where it succeeds, and a lenient list elsewhere, for L103 must still be
   found above a projection [infer] rejects (None once a source is unknown).
   Both lists are in reverse producer order ([Algebra.infer_step]'s shared
   form): a join's shares its left side's, and only L103's message reads
   them in producer order. *)
type typed = {
  typed : (string list, string) result;
  cols : string list option;
  findings : Diag.finding list;
}

(* [infer]'s rule at [q], with [a]'s verdict in [ra] and the other's in [rb]. *)
let verdict env q a ra rb =
  Algebra.infer_step (fun _ child -> if child == a then ra.typed else rb.typed) env q

(* Each child is reached once, as [fold] recomputes an unshared node.  What
   [infer] accepts binds no column twice and has union sides that agree as
   sets, so only where it fails are L102 and a union's sets checked.  A
   source is typed once per call ([scans]): a compiled view set scans one
   entity set from many physically distinct nodes. *)
let typed_step env scans fold q =
  match q with
  | Algebra.Scan src -> (
      match Hashtbl.find scans src with
      | r -> r
      | exception Not_found ->
          let typed = Algebra.infer_rev env q in
          let r = { typed; cols = Result.to_option typed; findings = [] } in
          Hashtbl.add scans src r;
          r)
  | Algebra.Select (c, sub) ->
      let s = fold sub in
      let here =
        if Query.Simplify.unsat c then
          [ Diag.finding ~code:"L011" ~severity:Diag.Warning
              "selection %s is unsatisfiable: the subtree contributes no rows"
              (Query.Pretty.cond_string c) ]
        else []
      in
      let typed = verdict env q sub s s in
      { typed; cols = s.cols; findings = Diag.union_findings here s.findings }
  | Algebra.Project (items, sub) -> (
      let s = fold sub in
      match verdict env q sub s s with
      | Ok dsts as typed -> { typed; cols = Some dsts; findings = s.findings }
      | Error _ as typed ->
          let here =
            match dup_dsts items with
            | [] -> []
            | dups ->
                [ Diag.finding ~code:"L102" ~severity:Diag.Error
                    "projection binds column(s) %s more than once" (String.concat ", " dups) ]
          in
          { typed;
            cols = Some (List.rev_map Algebra.dst_of items);
            findings = Diag.union_findings here s.findings })
  | Algebra.Join (_, l, r, on) ->
      let rl = fold l in
      let rr = fold r in
      let typed = verdict env q l rl rr in
      let cols =
        match (typed, rl.cols, rr.cols) with
        | Ok cols, _, _ -> Some cols
        | Error _, Some lc, Some rc -> Some (List.filter (fun c -> not (List.mem c on)) rc @ lc)
        | Error _, _, _ -> None
      in
      { typed; cols; findings = Diag.union_findings rl.findings rr.findings }
  | Algebra.Union_all (l, r) ->
      let rl = fold l in
      let rr = fold r in
      let typed = verdict env q l rl rr in
      let here =
        match (rl.cols, rr.cols) with
        | Some lc, Some rc
          when lc <> rc
               && (Result.is_ok typed
                  || List.sort String.compare lc = List.sort String.compare rc) ->
            [ Diag.finding ~code:"L103" ~severity:Diag.Warning
                "UNION ALL sides agree on columns but in different order: {%s} vs {%s}"
                (String.concat "," (List.rev lc))
                (String.concat "," (List.rev rc)) ]
        | _ -> []
      in
      let findings = Diag.union_findings rl.findings rr.findings in
      { typed; cols = rl.cols; findings = Diag.union_findings here findings }

(* -- L008: dead CASE branches ---------------------------------------------- *)

let leaf_name = function
  | Ctor.Entity { etype; _ } -> "entity " ^ etype
  | Ctor.If _ -> "a nested CASE"

let dead_branch_diags loc ctor acc =
  let dead guard leaf acc =
    if Query.Simplify.unsat guard then
      Diag.makef ~code:"L008" ~severity:Diag.Warning ~loc
        "CASE branch constructing %s is unreachable (guard %s is unsatisfiable)" (leaf_name leaf)
        (Query.Pretty.cond_string guard)
      :: acc
    else acc
  in
  match Ctor.branches ctor with
  | Some bs -> List.fold_left (fun acc (guard, leaf) -> dead guard leaf acc) acc bs
  | None ->
      (* Some guard resists complementation: fall back to testing each branch
         condition on its own. *)
      let rec walk c acc =
        match c with
        | Ctor.Entity _ -> acc
        | Ctor.If (cond, t, e) -> walk e (walk t (dead cond t acc))
      in
      walk ctor acc

(* -- L105: constructor references and exact view columns --------------------- *)

(* Column names are numbered in order of first sight, once per call, so
   that a set of names is a bitset ({!Datum.Name_set}). *)
module Names = Datum.Name_set

(* The set of a view's columns, built once per list: views share [infer]'s
   lists, and [compare] stops at [==]. *)
let column_set names sets cols =
  match Hashtbl.find sets cols with
  | set -> set
  | exception Not_found ->
      let set = Names.of_list names cols in
      Hashtbl.add sets cols set;
      set

let rec iter_columns f = function
  | Cond.Is_null c | Cond.Is_not_null c | Cond.Cmp (c, _, _) -> f c
  | Cond.And (a, b) | Cond.Or (a, b) ->
      iter_columns f a;
      iter_columns f b
  | Cond.True | Cond.False | Cond.Is_of _ | Cond.Is_of_only _ -> ()

let is_type_atom = function Cond.Is_of _ | Cond.Is_of_only _ -> true | _ -> false

(* What a constructor subtree references: the attributes its entities read
   and the columns its conditions test, as sets, and whether some branch
   tests entity types.  [refs] reaches the children. *)
type refs = { attrs : Names.t; conds : Names.t; tests_types : bool }

let ctor_refs_step names refs c =
  match c with
  | Ctor.Entity { attrs; _ } ->
      { attrs = Names.of_list names attrs; conds = Names.empty; tests_types = false }
  | Ctor.If (cond, a, b) ->
      let ra = refs a and rb = refs b in
      { attrs = Names.union ra.attrs rb.attrs;
        conds = Names.union (Names.of_iter names iter_columns cond) (Names.union ra.conds rb.conds);
        tests_types = Cond.exists_atom is_type_atom cond || ra.tests_types || rb.tests_types }

let ctor_ref_diags loc names refs cols acc =
  let acc = ref acc in
  let missing what set =
    Names.iter_missing names
      (fun c ->
        acc :=
          Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
            "constructor %s %s is not produced by the view's query" what c
          :: !acc)
      set cols
  in
  missing "attribute" refs.attrs;
  missing "condition column" refs.conds;
  if refs.tests_types && not (Names.mem names cols Query.Env.type_column) then
    Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
      "constructor tests entity types but the query does not carry %s" Query.Env.type_column
    :: !acc
  else !acc

(* What a view's columns are judged against: an entity view's constructor,
   with whether its CASE branches are checked (L008), or the table or
   association whose columns an update or association view must produce. *)
type judge = Ctor of { ctor : Ctor.t; branches : bool } | Exact of owner
and owner = Table of string | Assoc of string

(* A view without a constructor produces exactly its owner's columns: the
   view and owner as messages name them, and the columns; or the message
   that there is no such owner. *)
let exact_columns env = function
  | Table t -> (
      match Relational.Schema.find_table env.Query.Env.store t with
      | Some tbl -> Ok ("update view", "table " ^ t, Relational.Table.column_names tbl)
      | None -> Error ("the store has no table " ^ t))
  | Assoc a -> (
      let client = env.Query.Env.client in
      match Edm.Schema.find_association client a with
      | Some assoc ->
          Ok ("association view", "association " ^ a, Edm.Schema.association_columns client assoc)
      | None -> Error ("the client has no association " ^ a))

(* The view's columns are exactly its owner's: one error per column only one
   side has. *)
let exact_column_diags env loc names owner cols set acc =
  let diag fmt = Diag.makef ~code:"L105" ~severity:Diag.Error ~loc fmt in
  match exact_columns env owner with
  | Error msg -> diag "%s" msg :: acc
  | Ok (view, owner, expected) ->
      let missing acc c =
        if Names.mem names set c then acc
        else diag "the %s does not produce column %s of %s" view c owner :: acc
      in
      let extra acc c =
        if List.mem c expected then acc
        else diag "the %s produces column %s, which %s lacks" view c owner :: acc
      in
      List.fold_left extra (List.fold_left missing acc expected) cols

(* -- Assembly ------------------------------------------------------------- *)

(* One table per analysis per call (see wf.mli). *)

(* Every view with its location, query and judge.  The root view's
   constructor carries the hierarchy's full CASE chain; the per-subtype
   views restrict the same chain, so running the quadratic branch analysis
   only at the roots covers every branch without paying for it once per
   subtype. *)
let located env (qv : View.query_views) (uv : View.update_views) =
  let roots = List.map snd (Edm.Schema.entity_sets env.Query.Env.client) in
  List.map
    (fun (ty, (v : View.t)) ->
      (Diag.Query_view ty, v.query, Ctor { ctor = v.ctor; branches = List.mem ty roots }))
    (View.entity_view_bindings qv)
  @ List.map (fun (a, q) -> (Diag.Query_view a, q, Exact (Assoc a))) (View.assoc_view_bindings qv)
  @ List.map (fun (t, q) -> (Diag.Update_view t, q, Exact (Table t))) (View.update_view_bindings uv)

(* L008, L011, L101, L102, L103 and L105 of every view. *)
let view_shape_diags env ~keep views =
  let fold = Algebra.Memo.fix ~keep (Algebra.Memo.create ()) (typed_step env (Hashtbl.create 64)) in
  let names = Names.numbering 256 in
  let refs =
    let keep =
      Ctor.Memo.shared
        (List.filter_map (function _, _, Ctor { ctor; _ } -> Some ctor | _ -> None) views)
    in
    Ctor.Memo.fix ~keep (Ctor.Memo.create ()) (ctor_refs_step names)
  in
  let sets = Hashtbl.create 64 in
  let one acc (loc, query, judge) =
    let n = fold query in
    let structural = List.rev_map (Diag.at loc) n.findings in
    let acc =
      match judge with Ctor { ctor; branches = true } -> dead_branch_diags loc ctor acc | _ -> acc
    in
    List.rev_append
      (match n.typed with
      | Ok cols -> (
          let set = column_set names sets cols in
          match judge with
          | Ctor { ctor; _ } -> ctor_ref_diags loc names (refs ctor) set structural
          | Exact owner -> exact_column_diags env loc names owner cols set structural)
      | Error msg ->
          (* Suppress when a more specific structural error already explains
             the failure. *)
          if List.exists (fun d -> d.Diag.severity = Diag.Error) structural then structural
          else Diag.makef ~code:"L101" ~severity:Diag.Error ~loc "%s" msg :: structural)
      acc
  in
  List.fold_left one [] views

(* L104 of every update view. *)
let update_null_diags env (uv : View.update_views) =
  let scan = scan_nullability (Hashtbl.create 64) env in
  List.concat_map
    (fun (t, q) -> update_view_null_diags env scan t q)
    (View.update_view_bindings uv)

let check env qv uv =
  let views = located env qv uv in
  let keep = Algebra.Memo.shared (List.map (fun (_, q, _) -> q) views) in
  let shape_ds = view_shape_diags env ~keep views in
  Diag.sort (List.rev_append shape_ds (update_null_diags env uv))
