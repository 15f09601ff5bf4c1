let ( let* ) = Result.bind

module VE = Containment.Validation_error

let fail fmt = VE.msgf fmt
let lift r = VE.lift r

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
  Datum.Results.all_ok
    (fun (a, c) ->
      match List.assoc_opt a attrs, Relational.Table.domain_of table c with
      | Some da, Some dc when not (Datum.Domain.subsumes ~wide:dc ~narrow:da) ->
          fail "dom(%s) is not contained in dom(%s.%s)" a name c
      | _ -> Ok ())
    fmap

let add_fresh_table frags store (table : Relational.Table.t) fmap =
  let name = table.Relational.Table.name in
  let* () =
    Datum.Results.all_ok
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

let adapt_fragments ~types rewrite frags =
  let visited = Mapping.Fragments.naming frags types in
  Obs.Span.tag "fragments_visited" (List.length visited);
  List.fold_left
    (fun acc (f : Mapping.Fragment.t) ->
      let cond = rewrite f.client_cond in
      if cond == f.client_cond then acc
      else Mapping.Fragments.replace f { f with client_cond = cond } acc)
    frags visited

let adapt_update_views frags ~types rewrite uv =
  let tables =
    List.sort_uniq String.compare
      (List.map (fun (f : Mapping.Fragment.t) -> f.table) (Mapping.Fragments.naming frags types))
  in
  let visited =
    List.filter_map (fun t -> Option.map (fun q -> (t, q)) (Query.View.table_view uv t)) tables
  in
  Obs.Span.tag "views_visited" (List.length visited);
  List.fold_left
    (fun acc (t, q) ->
      let q' = Query.Algebra.map_conditions rewrite q in
      if q' == q then acc else Query.View.set_table_view t q' acc)
    uv visited

let not_null_conj cols = Query.Cond.conj (List.map (fun c -> Query.Cond.Is_not_null c) cols)

let fk_obligations env uv ~table (fk : Relational.Table.foreign_key) =
  span "algo.fk-containment" ~attrs:[ ("table", table); ("ref", fk.ref_table) ] @@ fun () ->
  match Query.View.table_view uv table, Query.View.table_view uv fk.ref_table with
  | None, _ -> fail "table %s has no update view" table
  | Some _, None ->
      fail "foreign key %s -> %s references a table outside the mapping" table fk.ref_table
  | Some qt, Some qt' ->
      let lhs =
        Query.Algebra.project_renamed
          (List.combine fk.fk_columns fk.ref_columns)
          (Query.Algebra.Select (not_null_conj fk.fk_columns, qt))
      in
      let rhs = Query.Algebra.project_cols fk.ref_columns qt' in
      let cols = String.concat "," fk.fk_columns in
      Ok
        [
          Containment.Obligation.make ~env ~lhs ~rhs
            ~name:(lazy (Printf.sprintf "fk:%s(%s)->%s" table cols fk.ref_table))
            ~on_fail:
              (lazy
                (Printf.sprintf "incremental validation: update views may violate foreign key \
                                 %s(%s) -> %s" table cols fk.ref_table));
        ]

let assoc_endpoint_obligations env frags uv ~etypes =
  span "algo.assoc-checks" @@ fun () ->
  let client = env.Query.Env.client in
  Datum.Results.collect
    (fun etype ->
      Datum.Results.collect
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
                | Some qr ->
                    let lhs =
                      Query.Algebra.project_renamed
                        (List.combine end_cols beta)
                        (Query.Algebra.Scan (Query.Algebra.Assoc_set a.Edm.Association.name))
                    in
                    let rhs = Query.Algebra.project_cols beta qr in
                    Ok
                      [
                        let name = a.Edm.Association.name in
                        Containment.Obligation.make ~env ~lhs ~rhs
                          ~name:(lazy (Printf.sprintf "assoc-endpoint:%s@%s" name etype))
                          ~on_fail:
                            (lazy
                              (Printf.sprintf "incremental validation: association %s can no \
                                               longer be stored in %s" name f.table));
                      ]))
        (Edm.Schema.associations_on client etype))
    etypes

let assoc_rows_keep_entities env frags ~e ~etypes =
  let client = env.Query.Env.client in
  Datum.Results.all_ok
    (fun etype ->
      let key = Edm.Schema.key_of client etype in
      let set = Edm.Schema.set_of_type client etype in
      Datum.Results.all_ok
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

(* An FK of [table] that meets none of [columns] keeps its proof; one with
   a column no fragment of [frags] writes holds in every row, since that
   column is NULL there and simple match exempts the row (DESIGN §2). *)
let image_fk_obligations env frags uv ~table ~columns =
  match Relational.Schema.find_table env.Query.Env.store table with
  | None -> Ok []
  | Some tbl ->
      let on = Mapping.Fragments.on_table frags table in
      let written c = List.exists (fun f -> Mapping.Coverage.writes f c) on in
      Datum.Results.collect
        (fun (fk : Relational.Table.foreign_key) ->
          if
            List.exists (fun c -> List.mem c columns) fk.fk_columns
            && List.for_all written fk.fk_columns
          then fk_obligations env uv ~table fk
          else Ok [])
        tbl.Relational.Table.fks

let assoc_table_fk_obligations env frags uv ~etypes =
  let client = env.Query.Env.client in
  Datum.Results.collect
    (fun etype ->
      Datum.Results.collect
        (fun (a : Edm.Association.t) ->
          match Mapping.Fragments.of_assoc frags a.Edm.Association.name with
          | [] -> Ok []
          | frag :: _ ->
              image_fk_obligations env frags uv ~table:frag.Mapping.Fragment.table
                ~columns:(Mapping.Fragment.cols frag))
        (Edm.Schema.associations_on client etype))
    etypes

let shrink (before : State.t) env fragments query_views ~set ~tables =
  span "algo.shrink" @@ fun () ->
  let tables = List.sort_uniq String.compare tables in
  let mapped, unmapped =
    List.partition (fun t -> Mapping.Fragments.on_table fragments t <> []) tables
  in
  let* () =
    Datum.Results.all_ok
      (fun t ->
        let unwritten = Mapping.Coverage.unwritten_not_null (Mapping.Fragments.on_table fragments t) in
        match Option.map unwritten (Relational.Schema.find_table env.Query.Env.store t) with
        | Some (c :: _) -> fail "non-nullable column %s.%s would be written by no fragment" t c
        | Some [] | None -> Ok ())
      mapped
  in
  let* query_views =
    match set with
    | None -> Ok query_views
    | Some set ->
        let* views = lift (Fullc.Query_views.for_set env fragments ~set) in
        Ok
          (List.fold_left
             (fun acc (ty, v) -> Query.View.set_entity_view ty v acc)
             query_views views)
  in
  Obs.Span.tag "views_visited" (List.length tables);
  let orphaned = List.fold_left (Fun.flip Query.View.remove_table_view) before.State.update_views unmapped in
  let* update_views =
    List.fold_left
      (fun acc table ->
        let* acc = acc in
        let* v = lift (Fullc.Update_views.for_table env fragments ~table) in
        Ok (Query.View.set_table_view table v acc))
      (Ok orphaned) mapped
  in
  Ok { State.env; fragments; query_views; update_views }
