let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let apply (st : State.t) ~assoc =
  let client = st.State.env.Query.Env.client in
  let* a =
    match Edm.Schema.find_association client assoc with
    | Some a -> Ok a
    | None -> fail "unknown association %s" assoc
  in
  let e1 = a.Edm.Association.end1 and e2 = a.Edm.Association.end2 in
  let* () =
    match a.Edm.Association.mult1, a.Edm.Association.mult2 with
    | Edm.Association.One, (Edm.Association.Zero_or_one | Edm.Association.One) -> Ok ()
    | _, _ -> fail "Refactor requires a 1 – 0..1 association, %s is not" assoc
  in
  let* () =
    match Edm.Schema.parent client e2 with
    | None -> Ok ()
    | Some _ -> fail "Refactor requires %s to be a hierarchy root" e2
  in
  let* set2 =
    match Edm.Schema.set_of_type client e2 with
    | Some s -> Ok s
    | None -> fail "entity type %s belongs to no set" e2
  in
  let* assoc_frag = Algo.lift (Mapping.Fragments.assoc_fragment st.State.fragments assoc) in
  let t2 = assoc_frag.Mapping.Fragment.table in
  let key1 = Edm.Schema.key_of client e1 in
  let cols1 = List.map (Edm.Association.qualify ~etype:e1) key1 in
  let* f_pk1 =
    let images = List.filter_map (fun c -> Mapping.Fragment.col_of assoc_frag c) cols1 in
    if List.length images = List.length cols1 then Ok images
    else fail "association fragment does not map the %s endpoint" e1
  in
  (* Supported shape: all of E2's subtree maps to the association's table. *)
  let e2_frags = Mapping.Fragments.of_set st.State.fragments set2 in
  let* () =
    match
      List.find_opt (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table <> t2) e2_frags
    with
    | Some f ->
        fail "Refactor supports single-table subtrees; fragment %s maps elsewhere"
          (Mapping.Fragment.show f)
    | None -> Ok ()
  in
  (* Client schema: drop the association, reparent E2 under E1. *)
  let* client' = Algo.lift (Edm.Schema.remove_association assoc client) in
  let* client' = Algo.lift (Edm.Schema.reparent ~etype:e2 ~parent:e1 client') in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  let* set1 =
    match Edm.Schema.set_of_type client' e1 with
    | Some s -> Ok s
    | None -> fail "entity type %s belongs to no set" e1
  in
  (* Fragments: E2's move into set1, keyed by the inherited key through
     f(PK1); E1-side ONLY conditions widen to admit the subtree; the
     association fragment disappears. *)
  let key_pairs = List.combine key1 f_pk1 in
  let widen = Algo.widen_only_p ~p:e1 ~e:e2 in
  let widened, fragments =
    Algo.span "refactor.fragments" @@ fun () ->
    let moved =
      List.fold_left
        (fun acc (f : Mapping.Fragment.t) ->
          Mapping.Fragments.replace f
            {
              f with
              Mapping.Fragment.client_source = Mapping.Fragment.Set set1;
              client_cond =
                Query.Cond.simplify
                  (Query.Cond.And (Query.Cond.Is_of e2, f.Mapping.Fragment.client_cond));
              pairs = key_pairs @ f.Mapping.Fragment.pairs;
            }
            acc)
        (Mapping.Fragments.remove assoc_frag st.State.fragments)
        e2_frags
    in
    let widened =
      List.filter
        (fun (f : Mapping.Fragment.t) -> widen f.Mapping.Fragment.client_cond != f.client_cond)
        (Mapping.Fragments.naming moved [ e1 ])
    in
    (widened, Algo.adapt_fragments ~types:[ e1 ] widen moved)
  in
  (* Coverage of the reparented subtree (inherited attributes included). *)
  let* () =
    Algo.span "refactor.coverage" @@ fun () ->
    Datum.Results.all_ok
      (fun ty -> Algo.lift (Mapping.Coverage.attribute_coverage env' fragments ~etype:ty))
      (Edm.Schema.subtypes client' e2)
  in
  (* Views: drop the association view, regenerate the merged hierarchy and
     rebuild the tables of the moved and widened fragments. *)
  let* st' =
    Algo.shrink st env' fragments
      (Query.View.remove_assoc_view assoc st.State.query_views)
      ~set:(Some set1)
      ~tables:(t2 :: List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table) widened)
  in
  (* The foreign keys of the subtree's table must keep resolving: the
     refactored schema has client states the old one had not. *)
  let update_views = st'.State.update_views in
  let has_view t = Query.View.table_view update_views t <> None in
  let* obls =
    match Relational.Schema.find_table env'.Query.Env.store t2 with
    | Some tbl when has_view t2 ->
        Datum.Results.collect
          (fun (fk : Relational.Table.foreign_key) ->
            if has_view fk.ref_table then Algo.fk_obligations env' update_views ~table:t2 fk
            else Ok [])
          tbl.Relational.Table.fks
    | Some _ | None -> Ok []
  in
  Ok (st', obls)
