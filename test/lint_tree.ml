(* Oracles for the linter.  Tree-walking versions of the rules of
   [Lint.Wf.check]: [Wf] has the structural ones (L101-L105) and [Views] the
   dead-code ones (L008, L011; update views have no constructor, so no
   L008).  Each applies its rules to every view as a tree, so a subterm
   reached from many views is analysed once per occurrence and each
   diagnostic is built at the view being walked.  Tests use their union as
   the oracle the memoized analysis must match diagnostic for diagnostic.
   [Passes] is the mapping analysis that rebuilds its lists per lookup, the
   oracle of [Lint.Passes.run]. *)

module Wf = struct
  module Cond = Query.Cond
  module Algebra = Query.Algebra
  module View = Query.View
  module Ctor = Query.Ctor
  module Diag = Lint.Diag

  let ( let* ) = Option.bind

  module S = Set.Make (String)

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
     broken to analyse (L101's business). *)
  let rec nullability memo env q =
    match q with
    | Algebra.Scan src -> scan_nullability memo env src
    | Algebra.Select (c, sub) ->
        let* cols = nullability memo env sub in
        let refined =
          Query.Cond.conjuncts c
          |> List.filter_map (function
               | Cond.Is_not_null a -> Some a
               | Cond.Cmp (a, _, v) when not (Datum.Value.is_null v) -> Some a
               | _ -> None)
        in
        Some (List.map (fun (n, nl) -> (n, nl && not (List.mem n refined))) cols)
    | Algebra.Project (items, sub) ->
        let* cols = nullability memo env sub in
        let of_src s = match List.assoc_opt s cols with Some nl -> nl | None -> true in
        Some
          (List.map
             (function
               | Algebra.Col { src; dst } -> (dst, of_src src)
               | Algebra.Const { value; dst } -> (dst, Datum.Value.is_null value)
               | Algebra.Coalesce { srcs; dst } -> (dst, List.for_all of_src srcs))
             items)
    | Algebra.Join (Query.Join.Inner, l, r, on) ->
        let* lc = nullability memo env l in
        let* rc = nullability memo env r in
        Some
          (List.map (fun (n, nl) -> (n, (not (List.mem n on)) && nl)) lc
          @ List.filter (fun (n, _) -> not (List.mem n on)) rc)
    | Algebra.Join (Query.Join.Left, l, r, on) ->
        let* lc = nullability memo env l in
        let* rc = nullability memo env r in
        Some (lc @ List.filter_map (fun (n, _) -> if List.mem n on then None else Some (n, true)) rc)
    | Algebra.Join (Query.Join.Full, l, r, on) ->
        let* lc = nullability memo env l in
        let* rc = nullability memo env r in
        let right_null n = match List.assoc_opt n rc with Some nl -> nl | None -> true in
        Some
          (List.map (fun (n, nl) -> if List.mem n on then (n, nl || right_null n) else (n, true)) lc
          @ List.filter_map (fun (n, _) -> if List.mem n on then None else Some (n, true)) rc)
    | Algebra.Union_all (l, r) ->
        let* lc = nullability memo env l in
        let* rc = nullability memo env r in
        let right_null n = match List.assoc_opt n rc with Some nl -> nl | None -> true in
        Some (List.map (fun (n, nl) -> (n, nl || right_null n)) lc)

  let update_view_null_diags memo env tname q =
    match Relational.Schema.find_table env.Query.Env.store tname with
    | None -> []
    | Some tbl -> (
        match nullability memo env q with
        | None -> []
        | Some cols ->
            List.filter_map
              (fun c ->
                let may_null = match List.assoc_opt c cols with Some nl -> nl | None -> false in
                if (not (Relational.Table.nullable tbl c)) && may_null then
                  Some
                    (Diag.makef ~code:"L104" ~severity:Diag.Warning ~loc:(Diag.Update_view tname)
                       "column %s is NOT NULL but the update view may produce NULL there \
                        (outer-join padding or nullable source)"
                       c)
                else None)
              (Relational.Table.column_names tbl))

  (* -- L102: duplicate projection destinations ------------------------------ *)

  let rec dup_dst_diags loc q acc =
    match q with
    | Algebra.Scan _ -> acc
    | Algebra.Project (items, sub) ->
        let dsts = List.map Algebra.dst_of items in
        let rec adjacent_dups = function
          | a :: (b :: _ as rest) ->
              if String.equal a b then a :: adjacent_dups rest else adjacent_dups rest
          | _ -> []
        in
        let dups = List.sort_uniq String.compare (adjacent_dups (List.sort String.compare dsts)) in
        let acc =
          if dups = [] then acc
          else
            Diag.makef ~code:"L102" ~severity:Diag.Error ~loc
              "projection binds column(s) %s more than once" (String.concat ", " dups)
            :: acc
        in
        dup_dst_diags loc sub acc
    | Algebra.Select (_, sub) -> dup_dst_diags loc sub acc
    | Algebra.Join (_, l, r, _)
    | Algebra.Union_all (l, r) ->
        dup_dst_diags loc r (dup_dst_diags loc l acc)

  (* -- L103: union signature order ------------------------------------------ *)

  (* Single bottom-up pass: propagate each subtree's output columns (None once
     anything is unresolvable — L101's business) and flag unions whose sides
     agree as sets but not in order. *)
  let rec union_scan env loc q acc =
    match q with
    | Algebra.Scan _ ->
        ((match Infer_tree.infer env q with Ok cols -> Some cols | Error _ -> None), acc)
    | Algebra.Select (_, sub) -> union_scan env loc sub acc
    | Algebra.Project (items, sub) ->
        let _, acc = union_scan env loc sub acc in
        (Some (List.map Algebra.dst_of items), acc)
    | Algebra.Join (_, l, r, on)
      ->
        let lc, acc = union_scan env loc l acc in
        let rc, acc = union_scan env loc r acc in
        let cols =
          match (lc, rc) with
          | Some lc, Some rc -> Some (lc @ List.filter (fun c -> not (List.mem c on)) rc)
          | _ -> None
        in
        (cols, acc)
    | Algebra.Union_all (l, r) ->
        let lc, acc = union_scan env loc l acc in
        let rc, acc = union_scan env loc r acc in
        let acc =
          match (lc, rc) with
          | Some lc, Some rc
            when lc <> rc && List.sort String.compare lc = List.sort String.compare rc ->
              Diag.makef ~code:"L103" ~severity:Diag.Warning ~loc
                "UNION ALL sides agree on columns but in different order: {%s} vs {%s}"
                (String.concat "," lc) (String.concat "," rc)
              :: acc
          | _ -> acc
        in
        (lc, acc)

  let union_order_diags env loc q acc = snd (union_scan env loc q acc)

  (* -- L105: constructor references and exact view columns ------------------- *)

  let ctor_ref_diags loc (v : View.t) cols acc =
    let cols = S.of_list cols in
    let acc = ref acc in
    let check what c =
      if not (S.mem c cols) then
        acc :=
          Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
            "constructor %s %s is not produced by the view's query" what c
          :: !acc
    in
    let rec walk = function
      | Ctor.Entity { attrs; _ } -> List.iter (check "attribute") attrs
      | Ctor.If (c, a, b) ->
          List.iter (check "condition column") (Cond.columns c);
          if Cond.type_atoms c <> [] && not (S.mem Query.Env.type_column cols) then
            acc :=
              Diag.makef ~code:"L105" ~severity:Diag.Error ~loc
                "constructor tests entity types but the query does not carry %s"
                Query.Env.type_column
              :: !acc;
          walk a;
          walk b
    in
    walk v.ctor;
    !acc

  (* A view's columns against the columns [want] it must produce exactly;
     [view] and [owner] name both in the messages. *)
  let exact_column_diags loc ~view ~owner want cols acc =
    let have = S.of_list cols and want = S.of_list want in
    let acc =
      S.fold
        (fun c acc ->
          Diag.makef ~code:"L105" ~severity:Diag.Error ~loc "the %s does not produce column %s of %s"
            view c owner
          :: acc)
        (S.diff want have) acc
    in
    S.fold
      (fun c acc ->
        Diag.makef ~code:"L105" ~severity:Diag.Error ~loc "the %s produces column %s, which %s lacks"
          view c owner
        :: acc)
      (S.diff have want) acc

  (* An update view's columns against its table's. *)
  let table_column_diags env loc table cols acc =
    match Relational.Schema.find_table env.Query.Env.store table with
    | None ->
        Diag.makef ~code:"L105" ~severity:Diag.Error ~loc "the store has no table %s" table :: acc
    | Some tbl ->
        exact_column_diags loc ~view:"update view" ~owner:("table " ^ table)
          (Relational.Table.column_names tbl) cols acc

  (* An association view's columns against its association's. *)
  let assoc_column_diags env loc a cols acc =
    let client = env.Query.Env.client in
    match Edm.Schema.find_association client a with
    | None ->
        Diag.makef ~code:"L105" ~severity:Diag.Error ~loc "the client has no association %s" a :: acc
    | Some assoc ->
        exact_column_diags loc ~view:"association view" ~owner:("association " ^ a)
          (Edm.Schema.association_columns client assoc) cols acc

  (* -- Assembly ------------------------------------------------------------- *)

  (* [judge] applies L105 to the columns of a well-typed query. *)
  let view_diags env loc q judge =
    let acc = dup_dst_diags loc q [] in
    let acc = union_order_diags env loc q acc in
    let acc =
      match Infer_tree.infer env q with
      | Ok cols -> judge cols acc
      | Error msg ->
          (* Suppress when a more specific structural error already explains
             the failure. *)
          if List.exists (fun d -> d.Diag.severity = Diag.Error) acc then acc
          else Diag.makef ~code:"L101" ~severity:Diag.Error ~loc "%s" msg :: acc
    in
    Diag.sort acc

  let check env (qv : View.query_views) (uv : View.update_views) =
    let memo : scan_memo = Hashtbl.create 64 in
    let acc = ref [] in
    let one loc (v : View.t) = acc := view_diags env loc v.query (ctor_ref_diags loc v) @ !acc in
    List.iter (fun (ty, v) -> one (Diag.Query_view ty) v) (View.entity_view_bindings qv);
    List.iter
      (fun (a, q) ->
        let loc = Diag.Query_view a in
        acc := view_diags env loc q (assoc_column_diags env loc a) @ !acc)
      (View.assoc_view_bindings qv);
    List.iter
      (fun (t, q) ->
        let loc = Diag.Update_view t in
        acc := view_diags env loc q (table_column_diags env loc t) @ !acc;
        acc := update_view_null_diags memo env t q @ !acc)
      (View.update_view_bindings uv);
    Diag.sort !acc
end

module Views = struct
  module S = Set.Make (String)
  module Diag = Lint.Diag
  module Pretty = Query.Pretty

  let unsat c = match Query.Simplify.cond c with Query.Cond.False -> true | _ -> false

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
    | Query.Algebra.Join (_, l, r, _)
    | Query.Algebra.Union_all (l, r) ->
        dead_select_diags loc r (dead_select_diags loc l acc)

  let leaf_name = function
    | Query.Ctor.Entity { etype; _ } -> "entity " ^ etype
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
    | Some bs -> List.fold_left (fun acc (guard, leaf) -> dead guard leaf acc) acc bs
    | None ->
        (* Some guard resists complementation: fall back to testing each branch
           condition on its own. *)
        let rec walk c acc =
          match c with
          | Query.Ctor.Entity _ -> acc
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
    List.iter
      (fun (a, q) -> acc := dead_select_diags (Diag.Query_view a) q !acc)
      (Query.View.assoc_view_bindings qv);
    List.iter
      (fun (t, q) -> acc := dead_select_diags (Diag.Update_view t) q !acc)
      (Query.View.update_view_bindings uv);
    Diag.sort !acc
end

(* The mapping analysis as it first stood: [Lint.Passes.run] with every
   lookup answered by list-building accessors, and with its own copies of
   the fragment accessors the lean analysis reads in place ([attr_of],
   [writes], [of_set], [of_assoc], [unwritten_not_null], [well_formed]),
   so that it shares no rewritten code with what it checks.  Tests require
   the lean [Lint.Passes.run] to return exactly its diagnostics. *)
module Passes = struct
  module Diag = Lint.Diag

  module Cond = Query.Cond
  module Simplify = Query.Simplify
  module Fragment = Mapping.Fragment
  module Fragments = Mapping.Fragments

  (* -- Fragment accessors, rebuilding their lists per call ------------------- *)

  let attr_of (f : Fragment.t) c = List.assoc_opt c (List.map (fun (a, b) -> (b, a)) f.pairs)

  let writes (f : Fragment.t) c =
    List.mem c (Fragment.cols f)
    || List.mem_assoc c (Query.Cond.determined_constants f.store_cond)

  let unwritten_not_null frags (table : Relational.Table.t) =
    List.filter_map
      (fun (col : Relational.Table.column) ->
        let c = col.cname in
        if col.nullable || List.exists (fun f -> writes f c) frags then None else Some c)
      table.columns

  let of_set frags set =
    List.filter
      (fun (f : Fragment.t) -> Fragment.equal_client_source f.client_source (Fragment.Set set))
      (Fragments.to_list frags)

  let of_assoc frags a =
    List.filter
      (fun (f : Fragment.t) -> Fragment.equal_client_source f.client_source (Fragment.Assoc a))
      (Fragments.to_list frags)

  let ( let* ) = Result.bind
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt

  let distinct l =
    let sorted = List.sort String.compare l in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
      | [ _ ] | [] -> None
    in
    dup sorted

  let well_formed env (f : Fragment.t) =
    let client = env.Query.Env.client in
    let store = env.Query.Env.store in
    let* tbl =
      match Relational.Schema.find_table store f.table with
      | Some tbl -> Ok tbl
      | None -> fail "fragment maps to unknown table %s" f.table
    in
    let* () =
      match distinct (Fragment.attrs f) with
      | Some a -> fail "duplicate client attribute %s in fragment projection" a
      | None -> Ok ()
    in
    let* () =
      match distinct (Fragment.cols f) with
      | Some c -> fail "duplicate store column %s in fragment projection" c
      | None -> Ok ()
    in
    let* () =
      Datum.Results.all_ok
        (fun c ->
          if Relational.Table.mem_column tbl c then Ok ()
          else fail "fragment projects unknown column %s.%s" f.table c)
        (Fragment.cols f)
    in
    let* () =
      if Cond.type_atoms f.store_cond = [] then Ok ()
      else fail "store-side condition of a fragment uses a type test"
    in
    let* () =
      Datum.Results.all_ok
        (fun c ->
          if Relational.Table.mem_column tbl c then Ok ()
          else fail "store condition mentions unknown column %s.%s" f.table c)
        (Cond.columns f.store_cond)
    in
    let check_domains domain =
      Datum.Results.all_ok
        (fun (a, c) ->
          match (domain a, Relational.Table.domain_of tbl c) with
          | Some da, Some dc ->
              if Datum.Domain.subsumes ~wide:dc ~narrow:da then Ok ()
              else fail "domain of %s.%s does not subsume attribute %s" f.table c a
          | None, _ | _, None -> Ok ())
        f.pairs
    in
    match f.client_source with
    | Fragment.Assoc a -> (
        match Edm.Schema.find_association client a with
        | None -> fail "fragment over unknown association %s" a
        | Some assoc ->
            let domains = Edm.Schema.association_attributes client assoc in
            let expected = List.map fst domains in
            let* () =
              if List.sort String.compare (Fragment.attrs f) = List.sort String.compare expected
              then Ok ()
              else
                fail "association fragment must project the full key columns {%s}"
                  (String.concat "," expected)
            in
            let* () =
              if Cond.equal f.client_cond Cond.True then Ok ()
              else fail "association fragments carry no client-side condition"
            in
            check_domains (fun a -> List.assoc_opt a domains))
    | Fragment.Set s -> (
        match Edm.Schema.set_root client s with
        | None -> fail "fragment over unknown entity set %s" s
        | Some root ->
            let domain = Edm.Schema.hierarchy_attribute client root in
            let* () =
              Datum.Results.all_ok
                (fun a ->
                  if domain a <> None then Ok ()
                  else fail "fragment projects unknown attribute %s of set %s" a s)
                (Fragment.attrs f)
            in
            let* () =
              Datum.Results.all_ok
                (fun k ->
                  if List.mem k (Fragment.attrs f) then Ok ()
                  else fail "fragment projection misses key attribute %s" k)
                (Edm.Schema.key_of client root)
            in
            let* () =
              Datum.Results.all_ok
                (fun atom ->
                  match atom with
                  | Cond.Is_of e | Cond.Is_of_only e ->
                      if
                        Edm.Schema.mem_type client e
                        && Edm.Schema.is_subtype client ~sub:e ~sup:root
                      then Ok ()
                      else fail "condition tests type %s outside hierarchy of %s" e s
                  | Cond.Is_null a | Cond.Is_not_null a | Cond.Cmp (a, _, _) ->
                      if domain a <> None then Ok ()
                      else fail "condition mentions unknown attribute %s" a
                  | Cond.True | Cond.False | Cond.And _ | Cond.Or _ -> Ok ())
                (Cond.atoms f.client_cond)
            in
            check_domains domain)

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
     [Edm.Schema] hierarchy queries read a child index, but its attribute
     accessors still walk the ancestry and concatenate the declared lists on
     every call, which is fine interactively but dominates a whole-model sweep;
     [run] shares these snapshots across the fragments and model passes of one
     call, so the table never outlives the schema it was built from. *)
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

  type hiers = (string, hier) Hashtbl.t

  let hier_of (hiers : hiers) client root =
    match Hashtbl.find_opt hiers root with
    | Some h -> h
    | None ->
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
        let h = { key = Edm.Schema.key_of client root; info } in
        Hashtbl.add hiers root h;
        h

  (* An attribute a type lacks reads as NULL (matching [Cond.eval]), so it is
     nullable for that type as far as L003 is concerned. *)
  let ty_nullable ti a = (not (S.mem a ti.nset)) || S.mem a ti.nullable

  let selected_info client hier c =
    List.filter (fun (ty, ti) -> approx client ~ty ~attrs:ti.names c <> F) hier.info

  (* DNF with a size cap: past the cap we give up rather than blow the
     syntactic-analysis cost budget. *)
  let dnf_capped c =
    let d = Cond.dnf c in
    if List.length d > 32 || List.exists (fun conj -> List.length conj > 24) d then None
    else Some d

  let conj_unsat hierarchy conj =
    Simplify.unsat (Cond.conj conj)
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
  let disjoint_store c1 c2 = disjoint_gen None c1 c2

  (* -- Per-fragment passes: L003 L004 L005 L007 L012 ------------------------ *)

  let floc f = Diag.Fragment (Fragment.describe f)

  let entity_fragment_diags hiers env (f : Fragment.t) set tbl add =
    let client = env.Query.Env.client in
    match Edm.Schema.set_root client set with
    | None -> ()
    | Some root ->
        let hier = hier_of hiers client root in
        let key = hier.key in
        let sel = selected_info client hier f.client_cond in
        let forced_not_null =
          Query.Cond.conjuncts f.client_cond
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
        List.iter
          (fun k ->
            match attr_of f k with
            | Some a when List.mem a key -> ()
            | Some a ->
                add
                  (Diag.makef ~code:"L005" ~severity:Diag.Warning ~loc:(floc f)
                     "primary-key column %s.%s is paired with non-key attribute %s" f.table k a)
            | None ->
                if not (writes f k) then
                  add
                    (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
                       "primary-key column %s.%s is neither mapped nor fixed by the store condition"
                       f.table k))
          tbl.Relational.Table.key;
        if Simplify.unsat f.client_cond then
          add
            (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
               "client condition is unsatisfiable: contradictory conjuncts")
        else if sel = [] then
          add
            (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
               "client condition selects no type of the hierarchy rooted at %s" root)

  let assoc_fragment_diags (f : Fragment.t) tbl add =
    List.iter
      (fun k ->
        if not (writes f k) then
          add
            (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
               "primary-key column %s.%s is neither mapped nor fixed by the store condition" f.table
               k))
      tbl.Relational.Table.key

  let fragment_diags hiers env (f : Fragment.t) =
    let diags = ref [] in
    let add d = diags := d :: !diags in
    (match Relational.Schema.find_table env.Query.Env.store f.table with
    | None -> ()
    | Some tbl -> (
        match f.client_source with
        | Fragment.Set s -> entity_fragment_diags hiers env f s tbl add
        | Fragment.Assoc _ -> assoc_fragment_diags f tbl add));
    if Simplify.unsat f.store_cond then
      add
        (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
           "store condition is unsatisfiable: contradictory conjuncts");
    (* Catch-all: anything the targeted passes miss but basic well-formedness
       rejects (broken references, misaligned projections, ...). *)
    let specific = !diags in
    (match well_formed env f with
    | Ok () -> ()
    | Error msg ->
        if not (List.exists (fun d -> d.Diag.severity = Diag.Error) specific) then
          add (Diag.makef ~code:"L012" ~severity:Diag.Error ~loc:(floc f) "%s" msg));
    !diags

  (* -- Whole-model passes: L001 L002 L006 L009 L010 ------------------------- *)

  let rec distinct_pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ distinct_pairs rest

  let unmapped_attr_diags hiers env frags add =
    let client = env.Query.Env.client in
    List.iter
      (fun (s, root) ->
        let sfrags = of_set frags s in
        let mapped a =
          List.exists
            (fun (f : Fragment.t) ->
              List.mem a (Fragment.attrs f)
              || List.mem_assoc a (Query.Cond.determined_constants f.client_cond))
            sfrags
        in
        (hier_of hiers client root).info
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
            List.iter
              (fun c ->
                add
                  (Diag.makef ~code:"L002" ~severity:Diag.Error ~loc:(Diag.Table tname)
                     "non-nullable column %s is written by no fragment" c))
              (unwritten_not_null (Fragments.on_table frags tname) tbl))
      (Fragments.tables frags)

  let overlap_diags hiers env frags add =
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
                                && attr_of f c <> attr_of g c)
                       in
                       if
                         conflicting <> []
                         && (not
                               (disjoint_hier client (hier_of hiers client root) f.client_cond
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
        match of_assoc frags assoc.name with
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

  let model_diags hiers env frags =
    let diags = ref [] in
    let add d = diags := d :: !diags in
    unmapped_attr_diags hiers env frags add;
    unwritten_column_diags env frags add;
    overlap_diags hiers env frags add;
    assoc_fk_diags env frags add;
    unreferenced_table_diags env frags add;
    !diags

  (* -- The mapping analysis ----------------------------------------------- *)

  let run env frags =
    let hiers : hiers = Hashtbl.create 16 in
    let frag_ds = List.concat_map (fragment_diags hiers env) (Fragments.to_list frags) in
    Diag.sort (List.rev_append frag_ds (model_diags hiers env frags))
end
