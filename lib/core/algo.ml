let ( let* ) = Result.bind

module VE = Containment.Validation_error

let fail fmt = VE.msgf fmt
let lift r = VE.lift r

let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      all_ok f rest

(* Accumulate the obligation lists emitted per item, preserving emission
   order — the discharge engine's failure reporting is defined in terms of
   this order. *)
let collect f xs =
  let* groups =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* obls = f x in
        Ok (obls :: acc))
      (Ok []) xs
  in
  Ok (List.concat (List.rev groups))

(* -- the column map f of the additive SMOs --------------------------------- *)

let check_column_map ~attrs ~keys (table : Relational.Table.t) fmap =
  let name = table.Relational.Table.name in
  let braces l = "{" ^ String.concat ", " l ^ "}" in
  let* () =
    if
      List.length fmap = List.length attrs
      && List.for_all (fun (a, _) -> List.mem_assoc a fmap) attrs
    then Ok ()
    else
      fail "f must map exactly %s, not %s" (braces (List.map fst attrs))
        (braces (List.map fst fmap))
  in
  let rec repeated = function
    | [] -> None
    | c :: rest -> if List.mem c rest then Some c else repeated rest
  in
  let* () =
    match repeated (List.map snd fmap) with
    | Some c -> fail "f is not one-to-one: it maps two attributes to %s.%s" name c
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun (_, c) -> not (Relational.Table.mem_column table c)) fmap with
    | Some (_, c) -> fail "f targets unknown column %s.%s" name c
    | None -> Ok ()
  in
  let sorted = List.sort String.compare in
  let image key = sorted (List.filter_map (fun k -> List.assoc_opt k fmap) key) in
  let* () =
    if List.exists (fun key -> image key = sorted table.Relational.Table.key) keys then Ok ()
    else
      fail "f must map %s onto the key of %s"
        (String.concat " or " (List.map braces keys)) name
  in
  all_ok
    (fun (a, c) ->
      match List.assoc_opt a attrs, Relational.Table.domain_of table c with
      | Some da, Some dc when not (Datum.Domain.subsumes ~wide:dc ~narrow:da) ->
          fail "dom(%s) is not contained in dom(%s.%s)" a name c
      | _ -> Ok ())
    fmap

let add_fresh_table frags store (table : Relational.Table.t) fmap =
  let name = table.Relational.Table.name in
  let* () =
    all_ok
      (fun c ->
        if List.exists (fun (_, c') -> c' = c) fmap || Relational.Table.nullable table c then
          Ok ()
        else fail "column %s.%s is outside the image of f and must be nullable" name c)
      (Relational.Table.column_names table)
  in
  match Relational.Schema.find_table store name with
  | None -> lift (Relational.Schema.add_table table store)
  | Some existing ->
      if not (Relational.Table.equal existing table) then
        fail "table %s already exists with a different definition" name
      else if Mapping.Fragments.on_table frags name <> [] then
        fail "table %s is already mentioned in the mapping" name
      else Ok store

let tag_for etype = "_t" ^ etype

(* Phase marker for the SMO algorithms: a named [Obs] span (free when
   collection is disabled). *)
let span ?attrs name f = Obs.Span.with_ ?attrs ~name f

let align_union env l r =
  let lc = Query.Algebra.columns env l and rc = Query.Algebra.columns env r in
  let all = List.sort_uniq String.compare (lc @ rc) in
  let pad cols q =
    let items =
      List.map
        (fun c -> if List.mem c cols then Query.Algebra.col c else Query.Algebra.null_as c)
        all
    in
    Query.Algebra.Project (items, q)
  in
  Query.Algebra.Union_all (pad lc l, pad rc r)

let widen_only_p ~p ~e cond =
  Query.Cond.map_atoms
    (function
      | Query.Cond.Is_of_only p' when p' = p ->
          Query.Cond.Or (Query.Cond.Is_of_only p, Query.Cond.Is_of e)
      | atom -> atom)
    cond

(* dp(F): descendants of F (reflexively) that lie in [between];
   chp(F'): children of F' outside [between] ∪ {E}. *)
let rule_out client ~between ~e cond =
  let replacement f =
    let dp =
      List.filter (fun f' -> Edm.Schema.is_subtype client ~sub:f' ~sup:f) between
    in
    Query.Cond.disj
      (List.map
         (fun f' ->
           let chp =
             List.filter
               (fun c -> (not (List.mem c between)) && c <> e)
               (Edm.Schema.children client f')
           in
           Query.Cond.disj
             (Query.Cond.Is_of_only f' :: List.map (fun c -> Query.Cond.Is_of c) chp))
         dp)
  in
  Query.Cond.map_atoms
    (function
      | Query.Cond.Is_of f when List.mem f between -> replacement f
      | atom -> atom)
    cond

let adapt_cond client ~p_ref ~between ~e cond =
  let cond =
    match p_ref with Some p -> widen_only_p ~p ~e cond | None -> cond
  in
  rule_out client ~between ~e cond

let adapt_fragments rewrite frags =
  Mapping.Fragments.map
    (fun f ->
      let cond = rewrite f.Mapping.Fragment.client_cond in
      if cond == f.Mapping.Fragment.client_cond then f
      else { f with Mapping.Fragment.client_cond = cond })
    frags

let adapt_update_views rewrite uv =
  List.fold_left
    (fun acc (t, (v : Query.View.t)) ->
      let query = Query.Algebra.map_conditions rewrite v.Query.View.query in
      if query == v.Query.View.query then acc
      else Query.View.set_table_view t { v with Query.View.query } acc)
    uv (Query.View.update_view_bindings uv)

let not_null_conj cols = Query.Cond.conj (List.map (fun c -> Query.Cond.Is_not_null c) cols)

let fk_obligations env uv ~table (fk : Relational.Table.foreign_key) =
  span "algo.fk-containment" ~attrs:[ ("table", table); ("ref", fk.ref_table) ] @@ fun () ->
  match Query.View.table_view uv table, Query.View.table_view uv fk.ref_table with
  | None, _ -> fail "table %s has no update view" table
  | Some _, None ->
      fail "foreign key %s -> %s references a table outside the mapping" table fk.ref_table
  | Some vt, Some vt' ->
      let lhs =
        Query.Algebra.project_renamed
          (List.combine fk.fk_columns fk.ref_columns)
          (Query.Algebra.Select (not_null_conj fk.fk_columns, vt.Query.View.query))
      in
      let rhs = Query.Algebra.project_cols fk.ref_columns vt'.Query.View.query in
      let cols = String.concat "," fk.fk_columns in
      Ok
        [
          Containment.Obligation.make
            ~name:(Printf.sprintf "fk:%s(%s)->%s" table cols fk.ref_table)
            ~env ~lhs ~rhs
            ~on_fail:
              (Printf.sprintf
                 "incremental validation: update views may violate foreign key %s(%s) -> %s" table
                 cols fk.ref_table);
        ]

let recheck_fks env uv tables =
  let has_view t = Query.View.table_view uv t <> None in
  collect
    (fun table ->
      match Relational.Schema.find_table env.Query.Env.store table with
      | Some tbl when has_view table ->
          collect
            (fun (fk : Relational.Table.foreign_key) ->
              if has_view fk.ref_table then fk_obligations env uv ~table fk else Ok [])
            tbl.Relational.Table.fks
      | Some _ | None -> Ok [])
    tables

let assoc_endpoint_obligations env frags uv ~etypes =
  span "algo.assoc-checks" @@ fun () ->
  let client = env.Query.Env.client in
  collect
    (fun etype ->
      collect
        (fun (a : Edm.Association.t) ->
          match Mapping.Fragments.of_assoc frags a.Edm.Association.name with
          | [] -> Ok []
          | f :: _ -> (
              let key = Edm.Schema.key_of client etype in
              let end_cols = List.map (Edm.Association.qualify ~etype) key in
              let beta =
                List.filter_map (fun c -> Mapping.Fragment.col_of f c) end_cols
              in
              if List.length beta <> List.length end_cols then
                fail "association %s does not map the %s endpoint" a.Edm.Association.name etype
              else
                match Query.View.table_view uv f.Mapping.Fragment.table with
                | None -> fail "table %s has no update view" f.Mapping.Fragment.table
                | Some vr ->
                    let lhs =
                      Query.Algebra.project_renamed
                        (List.combine end_cols beta)
                        (Query.Algebra.Scan (Query.Algebra.Assoc_set a.Edm.Association.name))
                    in
                    let rhs = Query.Algebra.project_cols beta vr.Query.View.query in
                    Ok
                      [
                        Containment.Obligation.make
                          ~name:
                            (Printf.sprintf "assoc-endpoint:%s@%s" a.Edm.Association.name etype)
                          ~env ~lhs ~rhs
                          ~on_fail:
                            (Printf.sprintf
                               "incremental validation: association %s can no longer be stored \
                                in %s"
                               a.Edm.Association.name f.Mapping.Fragment.table);
                      ]))
        (Edm.Schema.associations_on client etype))
    etypes

let assoc_rows_keep_entities env frags ~e ~etypes =
  let client = env.Query.Env.client in
  all_ok
    (fun etype ->
      let key = Edm.Schema.key_of client etype in
      let set = Edm.Schema.set_of_type client etype in
      all_ok
        (fun (a : Edm.Association.t) ->
          match Mapping.Fragments.of_assoc frags a.Edm.Association.name with
          | [] -> Ok ()
          | f :: _ ->
              let r = f.Mapping.Fragment.table in
              let beta =
                List.filter_map
                  (fun k -> Mapping.Fragment.col_of f (Edm.Association.qualify ~etype k))
                  key
              in
              (* The entity fragments of the table that store the endpoint's
                 key in the association's columns. *)
              let keyed (g : Mapping.Fragment.t) =
                (match g.Mapping.Fragment.client_source with
                | Mapping.Fragment.Set s -> set = Some s
                | Mapping.Fragment.Assoc _ -> false)
                && List.filter_map (fun k -> List.assoc_opt k g.Mapping.Fragment.pairs) key = beta
              in
              let keyed = List.filter keyed (Mapping.Fragments.on_table frags r) in
              if
                keyed <> []
                && not
                     (List.exists
                        (fun (g : Mapping.Fragment.t) ->
                          Query.Cover.satisfiable client ~etype:e g.Mapping.Fragment.client_cond)
                        keyed)
              then
                fail "association %s is stored in %s by the key of %s, but %s no longer holds %s"
                  a.Edm.Association.name r etype r e
              else Ok ())
        (Edm.Schema.associations_on client etype))
    etypes

let assoc_table_fk_obligations env frags uv ~etypes =
  let client = env.Query.Env.client in
  collect
    (fun etype ->
      collect
        (fun (a : Edm.Association.t) ->
          match Mapping.Fragments.of_assoc frags a.Edm.Association.name with
          | [] -> Ok []
          | frag :: _ -> (
              let r = frag.Mapping.Fragment.table in
              match Relational.Schema.find_table env.Query.Env.store r with
              | None -> Ok []
              | Some tbl ->
                  let beta = Mapping.Fragment.cols frag in
                  collect
                    (fun (fk : Relational.Table.foreign_key) ->
                      if List.exists (fun c -> List.mem c beta) fk.fk_columns then
                        fk_obligations env uv ~table:r fk
                      else Ok [])
                    tbl.Relational.Table.fks))
        (Edm.Schema.associations_on client etype))
    etypes

let drop_orphaned_views ~before frags uv =
  let after = Mapping.Fragments.tables frags in
  List.fold_left
    (fun uv t -> if List.mem t after then uv else Query.View.remove_table_view t uv)
    uv (Mapping.Fragments.tables before)

let recompile_set env frags ~set (st : State.t) =
  span "algo.recompile-set" ~attrs:[ ("set", set) ] @@ fun () ->
  let* set_views = lift (Fullc.Query_views.for_set env frags ~set) in
  let touched_tables =
    List.sort_uniq String.compare
      (List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table)
         (Mapping.Fragments.of_set frags set))
  in
  let* update_views =
    List.fold_left
      (fun acc table ->
        let* acc = acc in
        let* v = lift (Fullc.Update_views.for_table env frags ~table) in
        Ok (Query.View.set_table_view table v acc))
      (Ok st.State.update_views) touched_tables
  in
  let query_views =
    List.fold_left
      (fun acc (ty, v) -> Query.View.set_entity_view ty v acc)
      st.State.query_views set_views
  in
  Ok { State.env; fragments = frags; query_views; update_views }
