module Cond = Query.Cond
module Simplify = Query.Simplify
module Pretty = Query.Pretty
module Fragment = Mapping.Fragment
module Fragments = Mapping.Fragments

(* -- Shared condition reasoning ------------------------------------------- *)

(* Three-valued syntactic evaluation of a condition against one exact type:
   type atoms are decided exactly, attribute atoms over attributes the type
   lacks evaluate as over NULL (matching Cond.eval), everything else is
   unknown. *)
type tri = T | F | U

module S = Set.Make (String)

let rec approx client ~ty ~attrs c =
  match c with
  | Cond.True -> T
  | Cond.False -> F
  | Cond.Is_of e -> if Edm.Schema.is_subtype client ~sub:ty ~sup:e then T else F
  | Cond.Is_of_only e -> if String.equal ty e then T else F
  | Cond.Is_null a -> if List.mem a attrs then U else T
  | Cond.Is_not_null a -> if List.mem a attrs then U else F
  | Cond.Cmp (a, _, v) ->
      if Datum.Value.is_null v || not (List.mem a attrs) then F else U
  | Cond.And (a, b) -> (
      match (approx client ~ty ~attrs a, approx client ~ty ~attrs b) with
      | F, _ | _, F -> F
      | T, T -> T
      | _ -> U)
  | Cond.Or (a, b) -> (
      match (approx client ~ty ~attrs a, approx client ~ty ~attrs b) with
      | T, _ | _, T -> T
      | F, F -> F
      | _ -> U)

(* -- Hierarchy snapshot --------------------------------------------------- *)

(* Everything the passes read about one hierarchy, gathered once.  The
   [Edm.Schema] attribute accessors rebuild the inherited attribute list on
   every call, which is fine interactively but dominates a whole-model sweep;
   a [memo] shares these snapshots across the fragments of a run (the caller
   must not reuse it across schema changes — [Analyze.run] and the session
   cache both create one per run). *)
type type_info = {
  names : string list;
  nset : S.t;
  domains : (string * Datum.Domain.t) list;
  nullable : S.t;  (* declared attributes that are nullable on this type *)
}

type hier = {
  key : string list;
  info : (string * type_info) list;  (* subtypes in [Edm.Schema.subtypes] order *)
}

type memo = (string, hier) Hashtbl.t

let new_memo () : memo = Hashtbl.create 16

let hier_of ?memo client root =
  let build () =
    let info =
      List.map
        (fun ty ->
          let domains = Edm.Schema.attributes client ty in
          let names = List.map fst domains in
          let nullable =
            List.fold_left
              (fun s a -> if Edm.Schema.attribute_nullable client ty a then S.add a s else s)
              S.empty names
          in
          (ty, { names; nset = S.of_list names; domains; nullable }))
        (Edm.Schema.subtypes client root)
    in
    { key = Edm.Schema.key_of client root; info }
  in
  match memo with
  | None -> build ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl root with
      | Some h -> h
      | None ->
          let h = build () in
          Hashtbl.add tbl root h;
          h)

(* An attribute a type lacks reads as NULL (matching [Cond.eval]), so it is
   nullable for that type as far as L003 is concerned. *)
let ty_nullable ti a = (not (S.mem a ti.nset)) || S.mem a ti.nullable

let selected_info client hier c =
  List.filter (fun (ty, ti) -> approx client ~ty ~attrs:ti.names c <> F) hier.info

let selected_types client ~root c =
  List.map fst (selected_info client (hier_of client root) c)

let is_false = function Cond.False -> true | _ -> false
let unsat c = is_false (Simplify.cond c)

(* DNF with a size cap: past the cap we give up rather than blow the
   syntactic-analysis cost budget. *)
let dnf_capped c =
  let d = Cond.dnf c in
  if List.length d > 32 || List.exists (fun conj -> List.length conj > 24) d then None
  else Some d

let conj_unsat hierarchy conj =
  unsat (Cond.conj conj)
  ||
  match hierarchy with
  | Some (client, hier) -> selected_info client hier (Cond.conj conj) = []
  | None -> false

let disjoint_gen hierarchy c1 c2 =
  match (dnf_capped c1, dnf_capped c2) with
  | Some d1, Some d2 ->
      List.for_all
        (fun conj1 -> List.for_all (fun conj2 -> conj_unsat hierarchy (conj1 @ conj2)) d2)
        d1
  | _ -> false

let disjoint_hier client hier c1 c2 = disjoint_gen (Some (client, hier)) c1 c2
let disjoint_client client ~root c1 c2 = disjoint_hier client (hier_of client root) c1 c2
let disjoint_store c1 c2 = disjoint_gen None c1 c2

(* -- Per-fragment passes: L003 L004 L005 L007 L012 ------------------------ *)

let floc f = Diag.Fragment (Fragment.describe f)

let entity_fragment_diags ?memo env (f : Fragment.t) set tbl add =
  let client = env.Query.Env.client in
  match Edm.Schema.set_root client set with
  | None -> ()
  | Some root ->
      let hier = hier_of ?memo client root in
      let key = hier.key in
      let sel = selected_info client hier f.client_cond in
      let forced_not_null =
        Mapping.Coverage.conjuncts f.client_cond
        |> List.filter_map (function
             | Cond.Is_not_null a | Cond.Cmp (a, _, _) -> Some a
             | _ -> None)
      in
      List.iter
        (fun (a, c) ->
          (let adom = List.find_map (fun (_, ti) -> List.assoc_opt a ti.domains) hier.info in
           match (adom, Relational.Table.domain_of tbl c) with
           | Some ad, Some cd when not (Datum.Domain.subsumes ~wide:cd ~narrow:ad) ->
               add
                 (Diag.makef ~code:"L004" ~severity:Diag.Error ~loc:(floc f)
                    "column %s.%s (%s) cannot hold every value of attribute %s (%s)" f.table c
                    (Datum.Domain.show cd) a (Datum.Domain.show ad))
           | _ -> ());
          if
            Relational.Table.mem_column tbl c
            && (not (Relational.Table.nullable tbl c))
            && (not (List.mem a key))
            && (not (List.mem a forced_not_null))
            && List.exists (fun (_, ti) -> ty_nullable ti a) sel
          then
            add
              (Diag.makef ~code:"L003" ~severity:Diag.Warning ~loc:(floc f)
                 "attribute %s may be NULL but column %s.%s is NOT NULL" a f.table c))
        f.pairs;
      let consts = Mapping.Coverage.determined_constants f.store_cond in
      List.iter
        (fun k ->
          match Fragment.attr_of f k with
          | Some a when List.mem a key -> ()
          | Some a ->
              add
                (Diag.makef ~code:"L005" ~severity:Diag.Warning ~loc:(floc f)
                   "primary-key column %s.%s is paired with non-key attribute %s" f.table k a)
          | None ->
              if not (List.mem_assoc k consts) then
                add
                  (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
                     "primary-key column %s.%s is neither mapped nor fixed by the store condition"
                     f.table k))
        tbl.Relational.Table.key;
      if is_false (Simplify.cond f.client_cond) then
        add
          (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
             "client condition is unsatisfiable: contradictory conjuncts")
      else if sel = [] then
        add
          (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
             "client condition selects no type of the hierarchy rooted at %s" root)

let assoc_fragment_diags (f : Fragment.t) tbl add =
  let consts = Mapping.Coverage.determined_constants f.store_cond in
  List.iter
    (fun k ->
      if Fragment.attr_of f k = None && not (List.mem_assoc k consts) then
        add
          (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
             "primary-key column %s.%s is neither mapped nor fixed by the store condition" f.table
             k))
    tbl.Relational.Table.key

let fragment_diags ?memo env (f : Fragment.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match Relational.Schema.find_table env.Query.Env.store f.table with
  | None -> ()
  | Some tbl -> (
      match f.client_source with
      | Fragment.Set s -> entity_fragment_diags ?memo env f s tbl add
      | Fragment.Assoc _ -> assoc_fragment_diags f tbl add));
  if is_false (Simplify.cond f.store_cond) then
    add
      (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
         "store condition is unsatisfiable: contradictory conjuncts");
  (* Catch-all: anything the targeted passes miss but basic well-formedness
     rejects (broken references, misaligned projections, ...). *)
  let specific = !diags in
  (match Fragment.well_formed env f with
  | Ok () -> ()
  | Error msg ->
      if not (List.exists (fun d -> d.Diag.severity = Diag.Error) specific) then
        add (Diag.makef ~code:"L012" ~severity:Diag.Error ~loc:(floc f) "%s" msg));
  Diag.sort !diags

(* -- Whole-model passes: L001 L002 L006 L009 L010 ------------------------- *)

let rec distinct_pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> (x, y)) rest @ distinct_pairs rest

let unmapped_attr_diags ?memo env frags add =
  let client = env.Query.Env.client in
  List.iter
    (fun (s, root) ->
      let sfrags = Fragments.of_set frags s in
      let mapped a =
        List.exists
          (fun (f : Fragment.t) ->
            List.mem a (Fragment.attrs f)
            || List.mem_assoc a (Mapping.Coverage.determined_constants f.client_cond))
          sfrags
      in
      (hier_of ?memo client root).info
      |> List.concat_map (fun (_, ti) -> ti.names)
      |> List.sort_uniq String.compare
      |> List.iter (fun a ->
             if not (mapped a) then
               add
                 (Diag.makef ~code:"L001" ~severity:Diag.Error ~loc:(Diag.Entity_set s)
                    "attribute %s of the hierarchy rooted at %s is mapped by no fragment" a root)))
    (Edm.Schema.entity_sets client)

let unwritten_column_diags env frags add =
  List.iter
    (fun tname ->
      match Relational.Schema.find_table env.Query.Env.store tname with
      | None -> ()
      | Some tbl ->
          let tfrags = Fragments.on_table frags tname in
          let written c =
            List.exists
              (fun (f : Fragment.t) ->
                List.mem c (Fragment.cols f)
                || List.mem_assoc c (Mapping.Coverage.determined_constants f.store_cond))
              tfrags
          in
          List.iter
            (fun (col : Relational.Table.column) ->
              if (not col.nullable) && not (written col.cname) then
                add
                  (Diag.makef ~code:"L002" ~severity:Diag.Error ~loc:(Diag.Table tname)
                     "non-nullable column %s is written by no fragment" col.cname))
            tbl.columns)
    (Fragments.tables frags)

let overlap_diags ?memo env frags add =
  let client = env.Query.Env.client in
  List.iter
    (fun tname ->
      let key =
        match Relational.Schema.find_table env.Query.Env.store tname with
        | Some t -> t.Relational.Table.key
        | None -> []
      in
      Fragments.on_table frags tname
      |> List.filter (fun (f : Fragment.t) ->
             match f.client_source with Fragment.Set _ -> true | Fragment.Assoc _ -> false)
      |> distinct_pairs
      |> List.iter (fun ((f : Fragment.t), (g : Fragment.t)) ->
             match (f.client_source, g.client_source) with
             | Fragment.Set sf, Fragment.Set sg when String.equal sf sg -> (
                 match Edm.Schema.set_root client sf with
                 | None -> ()
                 | Some root ->
                     let conflicting =
                       Fragment.cols f
                       |> List.filter (fun c ->
                              List.mem c (Fragment.cols g)
                              && (not (List.mem c key))
                              && Fragment.attr_of f c <> Fragment.attr_of g c)
                     in
                     if
                       conflicting <> []
                       && (not
                             (disjoint_hier client (hier_of ?memo client root) f.client_cond
                                g.client_cond))
                       && not (disjoint_store f.store_cond g.store_cond)
                     then
                       add
                         (Diag.makef ~code:"L006" ~severity:Diag.Warning ~loc:(Diag.Table tname)
                            "overlapping fragments %s and %s write different attributes into \
                             column(s) %s"
                            (Fragment.describe f) (Fragment.describe g)
                            (String.concat ", " conflicting)))
             | _ -> ()))
    (Fragments.tables frags)

let assoc_fk_diags env frags add =
  let store = env.Query.Env.store in
  List.iter
    (fun (assoc : Edm.Association.t) ->
      match Fragments.of_assoc frags assoc.name with
      | [] ->
          add
            (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
               "association set is mapped by no fragment")
      | afrags ->
          List.iter
            (fun (f : Fragment.t) ->
              match Relational.Schema.find_table store f.table with
              | None -> ()
              | Some tbl ->
                  let in_key c = List.mem c tbl.key in
                  let fk_backed c =
                    List.exists
                      (fun (fk : Relational.Table.foreign_key) -> List.mem c fk.fk_columns)
                      tbl.fks
                  in
                  let unsupported =
                    List.filter (fun c -> (not (in_key c)) && not (fk_backed c)) (Fragment.cols f)
                  in
                  if unsupported <> [] then
                    add
                      (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
                         "association column(s) %s of table %s are backed by no foreign key"
                         (String.concat ", " unsupported) f.table)
                  else if List.for_all in_key (Fragment.cols f) && tbl.fks = [] then
                    add
                      (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
                         "join table %s of the association has no foreign keys" f.table))
            afrags)
    (Edm.Schema.associations env.Query.Env.client)

let unreferenced_table_diags env frags add =
  let mapped = Fragments.tables frags in
  List.iter
    (fun (tbl : Relational.Table.t) ->
      if not (List.mem tbl.name mapped) then
        add
          (Diag.makef ~code:"L010" ~severity:Diag.Info ~loc:(Diag.Table tbl.name)
             "table is not mapped by any fragment"))
    (Relational.Schema.tables env.Query.Env.store)

let model_diags ?memo env frags =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  unmapped_attr_diags ?memo env frags add;
  unwritten_column_diags env frags add;
  overlap_diags ?memo env frags add;
  assoc_fk_diags env frags add;
  unreferenced_table_diags env frags add;
  Diag.sort !diags

(* -- Compiled-view passes: L008 L011 -------------------------------------- *)

let rec dead_select_diags loc q acc =
  match q with
  | Query.Algebra.Scan _ -> acc
  | Query.Algebra.Select (c, sub) ->
      let acc =
        if unsat c then
          Diag.makef ~code:"L011" ~severity:Diag.Warning ~loc
            "selection %s is unsatisfiable: the subtree contributes no rows"
            (Pretty.cond_string c)
          :: acc
        else acc
      in
      dead_select_diags loc sub acc
  | Query.Algebra.Project (_, sub) -> dead_select_diags loc sub acc
  | Query.Algebra.Join (l, r, _)
  | Query.Algebra.Left_outer_join (l, r, _)
  | Query.Algebra.Full_outer_join (l, r, _)
  | Query.Algebra.Union_all (l, r) ->
      dead_select_diags loc r (dead_select_diags loc l acc)

let leaf_name = function
  | Query.Ctor.Entity { etype; _ } -> "entity " ^ etype
  | Query.Ctor.Tuple _ -> "a tuple"
  | Query.Ctor.If _ -> "a nested CASE"

let dead_branch_diags loc ctor acc =
  let dead guard leaf acc =
    if unsat guard then
      Diag.makef ~code:"L008" ~severity:Diag.Warning ~loc
        "CASE branch constructing %s is unreachable (guard %s is unsatisfiable)" (leaf_name leaf)
        (Pretty.cond_string guard)
      :: acc
    else acc
  in
  match Query.Ctor.branches ctor with
  | Some bs ->
      List.fold_left
        (fun acc b -> match b with Some (guard, leaf) -> dead guard leaf acc | None -> acc)
        acc bs
  | None ->
      (* Some guard resists complementation: fall back to testing each branch
         condition on its own. *)
      let rec walk c acc =
        match c with
        | Query.Ctor.Entity _ | Query.Ctor.Tuple _ -> acc
        | Query.Ctor.If (cond, t, e) -> walk e (walk t (dead cond t acc))
      in
      walk ctor acc

let view_diags env (qv : Query.View.query_views) (uv : Query.View.update_views) =
  let acc = ref [] in
  let one ?(branches = true) loc (v : Query.View.t) =
    let ds = dead_select_diags loc v.query !acc in
    acc := if branches then dead_branch_diags loc v.ctor ds else ds
  in
  (* The root view's constructor carries the hierarchy's full CASE chain; the
     per-subtype views restrict the same chain, so running the quadratic
     branch analysis only at the roots covers every branch without paying for
     it once per subtype. *)
  let roots =
    List.fold_left
      (fun s (_, root) -> S.add root s)
      S.empty
      (Edm.Schema.entity_sets env.Query.Env.client)
  in
  List.iter
    (fun (ty, v) -> one ~branches:(S.mem ty roots) (Diag.Query_view ty) v)
    (Query.View.entity_view_bindings qv);
  List.iter (fun (a, v) -> one (Diag.Query_view a) v) (Query.View.assoc_view_bindings qv);
  List.iter (fun (t, v) -> one (Diag.Update_view t) v) (Query.View.update_view_bindings uv);
  Diag.sort !acc
