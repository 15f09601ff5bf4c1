(* Tree-walking versions of the rules of [Lint.Wf.check]: [Wf] has the
   structural ones (L101-L105) and [Views] the dead-code ones (L008, L011;
   update views have no constructor, so no L008).
   Each applies its rules to every view as a tree, so a subterm reached from
   many views is analysed once per occurrence and each diagnostic is built
   at the view being walked.  Tests use their union as the oracle the
   memoized analysis must match diagnostic for diagnostic. *)

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
        ((match Algebra.infer env q with Ok cols -> Some cols | Error _ -> None), acc)
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
      match Algebra.infer env q with
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
