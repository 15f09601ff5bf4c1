module Cond = Query.Cond
module Algebra = Query.Algebra
module View = Query.View
module Ctor = Query.Ctor

let ( let* ) = Option.bind

(* -- L104: may-NULL dataflow ---------------------------------------------- *)

(* Scan nullability only depends on the scanned source, so one table shared
   by many update views (or one entity set scanned by every view of its
   hierarchy) is resolved once per [check]. *)
type scan_memo = (string, (string * bool) list option) Hashtbl.t

let scan_nullability (memo : scan_memo) env src =
  let client = env.Query.Env.client in
  let key, build =
    match src with
    | Algebra.Table t ->
        ( "tbl:" ^ t,
          fun () ->
            let* tbl = Relational.Schema.find_table env.Query.Env.store t in
            Some
              (List.map
                 (fun (c : Relational.Table.column) -> (c.cname, c.nullable))
                 tbl.Relational.Table.columns) )
    | Algebra.Entity_set s ->
        ( "set:" ^ s,
          fun () ->
            let* root = Edm.Schema.set_root client s in
            let subtys = Edm.Schema.subtypes client root in
            Some
              (List.map
                 (fun c ->
                   if String.equal c Query.Env.type_column then (c, false)
                   else
                     (c, List.exists (fun ty -> Edm.Schema.attribute_nullable client ty c) subtys))
                 (Query.Env.entity_set_columns env s)) )
    | Algebra.Assoc_set a ->
        ( "assoc:" ^ a,
          fun () ->
            let* assoc = Edm.Schema.find_association client a in
            Some (List.map (fun c -> (c, false)) (Edm.Schema.association_columns client assoc)) )
  in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      let r = build () in
      Hashtbl.add memo key r;
      r

(* For each output column of a query, whether it may carry NULL: table scans
   read column nullability, entity-set scans treat an attribute as nullable
   when any type of the hierarchy lacks it or declares it nullable, joins
   exploit that NULL keys never match, outer joins pad the missing side, and
   COALESCE is null only when all sources are.  [None] when the query is too
   broken to analyse (L101's business).  A step of a memoized fold:
   [nullability] reaches the children, [scan] resolves sources. *)
let nullability_step scan nullability q =
  match q with
  | Algebra.Scan src -> scan src
  | Algebra.Select (c, sub) ->
      let* cols = nullability sub in
      let refined =
        Query.Cond.conjuncts c
        |> List.filter_map (function
             | Cond.Is_not_null a -> Some a
             | Cond.Cmp (a, _, v) when not (Datum.Value.is_null v) -> Some a
             | _ -> None)
      in
      Some (List.map (fun (n, nl) -> (n, nl && not (List.mem n refined))) cols)
  | Algebra.Project (items, sub) ->
      let* cols = nullability sub in
      let of_src s = match List.assoc_opt s cols with Some nl -> nl | None -> true in
      Some
        (List.map
           (function
             | Algebra.Col { src; dst } -> (dst, of_src src)
             | Algebra.Const { value; dst } -> (dst, Datum.Value.is_null value)
             | Algebra.Coalesce { srcs; dst } -> (dst, List.for_all of_src srcs))
           items)
  | Algebra.Join (l, r, on) ->
      let* lc = nullability l in
      let* rc = nullability r in
      Some
        (List.map (fun (n, nl) -> (n, (not (List.mem n on)) && nl)) lc
        @ List.filter (fun (n, _) -> not (List.mem n on)) rc)
  | Algebra.Left_outer_join (l, r, on) ->
      let* lc = nullability l in
      let* rc = nullability r in
      Some (lc @ List.filter_map (fun (n, _) -> if List.mem n on then None else Some (n, true)) rc)
  | Algebra.Full_outer_join (l, r, on) ->
      let* lc = nullability l in
      let* rc = nullability r in
      let right_null n = match List.assoc_opt n rc with Some nl -> nl | None -> true in
      Some
        (List.map (fun (n, nl) -> if List.mem n on then (n, nl || right_null n) else (n, true)) lc
        @ List.filter_map (fun (n, _) -> if List.mem n on then None else Some (n, true)) rc)
  | Algebra.Union_all (l, r) ->
      let* lc = nullability l in
      let* rc = nullability r in
      let right_null n = match List.assoc_opt n rc with Some nl -> nl | None -> true in
      Some (List.map (fun (n, nl) -> (n, nl || right_null n)) lc)

(* Tuple leaves of an update-view constructor, each with the positive branch
   conditions guarding it. *)
let rec tuple_leaves guard = function
  | Ctor.Tuple cs -> [ (guard, cs) ]
  | Ctor.Entity _ -> []
  | Ctor.If (c, a, b) -> tuple_leaves (c :: guard) a @ tuple_leaves guard b

let guard_forces_not_null guard col =
  List.exists
    (fun g ->
      Query.Cond.conjuncts g
      |> List.exists (function
           | Cond.Is_not_null a -> String.equal a col
           | Cond.Cmp (a, _, v) -> String.equal a col && not (Datum.Value.is_null v)
           | _ -> false))
    guard

let update_view_null_diags env nullability tname (v : View.t) =
  match Relational.Schema.find_table env.Query.Env.store tname with
  | None -> []
  | Some tbl -> (
      match nullability v.query with
      | None -> []
      | Some cols ->
          tuple_leaves [] v.ctor
          |> List.concat_map (fun (guard, cs) ->
                 List.filter_map
                   (fun c ->
                     let may_null =
                       match List.assoc_opt c cols with Some nl -> nl | None -> false
                     in
                     if
                       Relational.Table.mem_column tbl c
                       && (not (Relational.Table.nullable tbl c))
                       && may_null
                       && not (guard_forces_not_null guard c)
                     then
                       Some
                         (Diag.makef ~code:"L104" ~severity:Diag.Warning
                            ~loc:(Diag.Update_view tname)
                            "column %s is NOT NULL but the update view may produce NULL there \
                             (outer-join padding or nullable source)"
                            c)
                     else None)
                   cs))

(* -- L011, L102, L103: selections, projections and unions ------------------ *)

let dup_dsts items =
  let rec adjacent_dups = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then a :: adjacent_dups rest else adjacent_dups rest
    | _ -> []
  in
  List.sort_uniq String.compare
    (adjacent_dups (List.sort String.compare (List.map Algebra.dst_of items)))

let unsat c = match Query.Simplify.cond c with Cond.False -> true | _ -> false

(* A subtree's output columns (None once anything is unresolvable — L101's
   business) and its L011, L102 and L103 findings: unsatisfiable selections,
   projections binding a column twice, and unions whose sides agree on
   columns as sets but not in order.  The columns are this lenient list, not
   [Algebra.infer]'s, because [infer] stops at a projection it rejects and
   L103 must still be found above one.  [shape] reaches the children, [scan]
   resolves sources. *)
let shape_step scan shape q =
  match q with
  | Algebra.Scan src -> (scan src, [])
  | Algebra.Select (c, sub) ->
      let cols, below = shape sub in
      let here =
        if unsat c then
          [ Diag.finding ~code:"L011" ~severity:Diag.Warning
              "selection %s is unsatisfiable: the subtree contributes no rows"
              (Query.Pretty.cond_string c) ]
        else []
      in
      (cols, Diag.union_findings here below)
  | Algebra.Project (items, sub) ->
      let here =
        match dup_dsts items with
        | [] -> []
        | dups ->
            [ Diag.finding ~code:"L102" ~severity:Diag.Error
                "projection binds column(s) %s more than once" (String.concat ", " dups) ]
      in
      (Some (List.map Algebra.dst_of items), Diag.union_findings here (snd (shape sub)))
  | Algebra.Join (l, r, on) | Algebra.Left_outer_join (l, r, on) | Algebra.Full_outer_join (l, r, on)
    ->
      let lc, lf = shape l in
      let rc, rf = shape r in
      let cols =
        match (lc, rc) with
        | Some lc, Some rc -> Some (lc @ List.filter (fun c -> not (List.mem c on)) rc)
        | _ -> None
      in
      (cols, Diag.union_findings lf rf)
  | Algebra.Union_all (l, r) ->
      let lc, lf = shape l in
      let rc, rf = shape r in
      let here =
        match (lc, rc) with
        | Some lc, Some rc
          when lc <> rc && List.sort String.compare lc = List.sort String.compare rc ->
            [ Diag.finding ~code:"L103" ~severity:Diag.Warning
                "UNION ALL sides agree on columns but in different order: {%s} vs {%s}"
                (String.concat "," lc) (String.concat "," rc) ]
        | _ -> []
      in
      (lc, Diag.union_findings here (Diag.union_findings lf rf))

(* -- L008: dead CASE branches ---------------------------------------------- *)

let leaf_name = function
  | Ctor.Entity { etype; _ } -> "entity " ^ etype
  | Ctor.Tuple _ -> "a tuple"
  | Ctor.If _ -> "a nested CASE"

let dead_branch_diags loc ctor acc =
  let dead guard leaf acc =
    if unsat guard then
      Diag.makef ~code:"L008" ~severity:Diag.Warning ~loc
        "CASE branch constructing %s is unreachable (guard %s is unsatisfiable)" (leaf_name leaf)
        (Query.Pretty.cond_string guard)
      :: acc
    else acc
  in
  match Ctor.branches ctor with
  | Some bs ->
      List.fold_left
        (fun acc b -> match b with Some (guard, leaf) -> dead guard leaf acc | None -> acc)
        acc bs
  | None ->
      (* Some guard resists complementation: fall back to testing each branch
         condition on its own. *)
      let rec walk c acc =
        match c with
        | Ctor.Entity _ | Ctor.Tuple _ -> acc
        | Ctor.If (cond, t, e) -> walk e (walk t (dead cond t acc))
      in
      walk ctor acc

(* -- L105: constructor references ----------------------------------------- *)

module Refs = Set.Make (struct
  type t = string * string

  let compare = compare
end)

(* What a constructor subtree references: [(what, column)] pairs, and
   whether some branch tests entity types.  [refs] reaches the children. *)
let ctor_refs_step refs c =
  let tag what cs = Refs.of_list (List.map (fun c -> (what, c)) cs) in
  match c with
  | Ctor.Entity { attrs; _ } -> (tag "attribute" attrs, false)
  | Ctor.Tuple cs -> (tag "column" cs, false)
  | Ctor.If (cond, a, b) ->
      let ra, ta = refs a in
      let rb, tb = refs b in
      ( Refs.union (tag "condition column" (Cond.columns cond)) (Refs.union ra rb),
        Cond.type_atoms cond <> [] || ta || tb )

(* Membership in a sorted array: one small array per view instead of a set. *)
let sorted_mem cols c =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let k = String.compare c cols.(mid) in
    k = 0 || if k < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cols)

let ctor_ref_diags loc (refs, tests_types) cols acc =
  let cols = Array.of_list cols in
  Array.sort String.compare cols;
  let acc =
    Refs.fold
      (fun (what, c) acc ->
        if sorted_mem cols c then acc
        else
          Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
            "constructor %s %s is not produced by the view's query" what c
          :: acc)
      refs acc
  in
  if tests_types && not (sorted_mem cols Query.Env.type_column) then
    Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
      "constructor tests entity types but the query does not carry %s" Query.Env.type_column
    :: acc
  else acc

(* -- Assembly ------------------------------------------------------------- *)

(* Every analysis is a memoized fold with one table per call: the
   environment is fixed for the call, and a table holds location-free
   findings, which each view places at its own location.  A table keeps only
   the results of nodes a second parent will ask for ([Memo.shared]), so
   what stays live during the call is small; the L104 pass runs after the
   others, so their tables are dead by then. *)

(* Every view with its location and whether its CASE branches are checked
   (L008).  The root view's constructor carries the hierarchy's full CASE
   chain; the per-subtype views restrict the same chain, so running the
   quadratic branch analysis only at the roots covers every branch without
   paying for it once per subtype. *)
let located env (qv : View.query_views) (uv : View.update_views) =
  let roots = List.map snd (Edm.Schema.entity_sets env.Query.Env.client) in
  let at loc branches bindings = List.map (fun (n, v) -> (loc n, branches n, v)) bindings in
  at (fun ty -> Diag.Query_view ty) (fun ty -> List.mem ty roots) (View.entity_view_bindings qv)
  @ at (fun a -> Diag.Query_view a) (fun _ -> true) (View.assoc_view_bindings qv)
  @ at (fun t -> Diag.Update_view t) (fun _ -> true) (View.update_view_bindings uv)

(* L008, L011, L101, L102, L103 and L105 of every view. *)
let view_shape_diags env ~keep views =
  let algebra step = Algebra.Memo.fix ~keep (Algebra.Memo.create ()) step in
  let infer = algebra (fun infer -> Algebra.infer_step (fun _ -> infer) env) in
  let scans = Hashtbl.create 64 in
  let scan src =
    match Hashtbl.find_opt scans src with
    | Some cols -> cols
    | None ->
        let cols = Result.to_option (Algebra.infer env (Algebra.Scan src)) in
        Hashtbl.add scans src cols;
        cols
  in
  let shape = algebra (shape_step scan) in
  let refs =
    let keep = Ctor.Memo.shared (List.map (fun (_, _, (v : View.t)) -> v.ctor) views) in
    Ctor.Memo.fix ~keep (Ctor.Memo.create ()) ctor_refs_step
  in
  let one acc (loc, branches, (v : View.t)) =
    let structural = List.rev_map (Diag.at loc) (snd (shape v.query)) in
    let acc = if branches then dead_branch_diags loc v.ctor acc else acc in
    List.rev_append
      (match infer v.query with
      | Ok cols -> ctor_ref_diags loc (refs v.ctor) cols structural
      | Error msg ->
          (* Suppress when a more specific structural error already explains
             the failure. *)
          if List.exists (fun d -> d.Diag.severity = Diag.Error) structural then structural
          else Diag.makef ~code:"L101" ~severity:Diag.Error ~loc "%s" msg :: structural)
      acc
  in
  List.fold_left one [] views

(* L104 of every update view. *)
let update_null_diags env ~keep (uv : View.update_views) =
  let scans : scan_memo = Hashtbl.create 64 in
  let nullability =
    Algebra.Memo.fix ~keep (Algebra.Memo.create ()) (nullability_step (scan_nullability scans env))
  in
  List.concat_map
    (fun (t, v) -> update_view_null_diags env nullability t v)
    (View.update_view_bindings uv)

(* One [keep] for both: the subterms shared anywhere in the view set, a
   superset of those the update views share among themselves. *)
let check env qv uv =
  let views = located env qv uv in
  let keep = Algebra.Memo.shared (List.map (fun (_, _, (v : View.t)) -> v.query) views) in
  let shape_ds = view_shape_diags env ~keep views in
  Diag.sort (List.rev_append shape_ds (update_null_diags env ~keep uv))
