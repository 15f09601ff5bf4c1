let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

(* -- schema evolution and precondition checks ----------------------------- *)

let check_preconditions (st : State.t) ~entity ~alpha ~p_ref ~table ~fmap =
  let client = st.State.env.Query.Env.client in
  let e = entity.Edm.Entity_type.name in
  let* client' = Algo.lift (Edm.Schema.add_derived entity client) in
  let att = Edm.Schema.attributes client' e in
  let att_e = List.map fst att in
  let key = Edm.Schema.key_of client' e in
  let* () =
    match List.find_opt (fun a -> not (List.mem a att_e)) alpha with
    | Some a -> fail "α contains %s, which is not an attribute of %s" a e
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun k -> not (List.mem k alpha)) key with
    | Some k -> fail "α misses the key attribute %s" k
    | None -> Ok ()
  in
  let* () =
    match p_ref with
    | None ->
        if List.length alpha = List.length att_e then Ok ()
        else fail "with P = NIL, α must equal att(%s)" e
    | Some p ->
        let* () =
          if Edm.Schema.is_proper_ancestor client' ~anc:p ~descendant:e then Ok ()
          else fail "%s is not an ancestor of %s" p e
        in
        let att_p = Edm.Schema.attribute_names client' p in
        let* () =
          match
            List.find_opt (fun a -> not (List.mem a alpha || List.mem a att_p)) att_e
          with
          | Some a -> fail "attribute %s of %s is covered neither by α nor by att(%s)" a e p
          | None -> Ok ()
        in
        (* Documented restriction: under a strict ancestor reference, the
           non-key part of α must be new to the hierarchy (Algorithm 1 joins
           would otherwise clash on column names). *)
        let root = Edm.Schema.root_of client' e in
        let older =
          List.concat_map
            (fun ty -> if ty = e then [] else Edm.Schema.attribute_names client' ty)
            (Edm.Schema.subtypes client' root)
        in
        (match List.find_opt (fun a -> (not (List.mem a key)) && List.mem a older) alpha with
        | Some a ->
            fail
              "α re-stores inherited attribute %s under ancestor reference %s: this mapping \
               requires a full recompilation"
              a p
        | None -> Ok ())
  in
  (* f : α → att(T) under the shared column-map rules; T must be fresh to
     the mapping and is added to the store if necessary. *)
  let* () =
    Algo.check_column_map ~attrs:(List.map (fun a -> (a, List.assoc a att)) alpha)
      ~keys:[ key ] table fmap
  in
  let* store' = Algo.add_fresh_table st.State.fragments st.State.env.Query.Env.store table fmap in
  Ok (Query.Env.make ~client:client' ~store:store')

(* -- Algorithm 1: query views --------------------------------------------- *)

let query_views (st : State.t) env' ~entity ~alpha ~p_ref ~table ~fmap =
  let client' = env'.Query.Env.client in
  let e = entity.Edm.Entity_type.name in
  let key = Edm.Schema.key_of client' e in
  let te = Algo.tag_for e in
  let tau_e = Query.Ctor.Entity { etype = e; attrs = Edm.Schema.attribute_names client' e } in
  let scan_t = Query.Algebra.Scan (Query.Algebra.Table table.Relational.Table.name) in
  let renamed = List.map (fun (a, c) -> Query.Algebra.col_as c a) fmap in
  let stq = Query.Algebra.Project (renamed, scan_t) in
  let stq_tagged = Query.Algebra.Project (renamed @ [ Query.Algebra.tag te ], scan_t) in
  let prev ty =
    match Query.View.entity_view st.State.query_views ty with
    | Some v -> Ok v
    | None -> fail "no previous query view for entity type %s" ty
  in
  ignore alpha;
  let* qe, qaux =
    match p_ref with
    | None -> Ok (stq, stq_tagged)
    | Some p ->
        let* vp = prev p in
        Ok
          ( Query.Algebra.Join (vp.Query.View.query, stq, key),
            Query.Algebra.Join (vp.Query.View.query, stq_tagged, key) )
  in
  let anc = match p_ref with None -> [] | Some p -> p :: Edm.Schema.ancestors client' p in
  let between =
    match p_ref with
    | None -> Edm.Schema.ancestors client' e
    | Some p -> Edm.Schema.strictly_between client' ~low:e ~high:(Some p)
  in
  let flag = Query.Cond.Cmp (te, Query.Cond.Eq, Datum.Value.Bool true) in
  let* qv =
    List.fold_left
      (fun acc f ->
        let* acc = acc in
        let* vf = prev f in
        let query = Query.Algebra.Left_outer_join (vf.Query.View.query, stq_tagged, key) in
        let ctor = Query.Ctor.If (flag, tau_e, vf.Query.View.ctor) in
        Ok (Query.View.set_entity_view f { Query.View.query; ctor } acc))
      (Ok st.State.query_views) anc
  in
  let* qv =
    List.fold_left
      (fun acc f ->
        let* acc = acc in
        let* vf = prev f in
        let query = Algo.align_union env' vf.Query.View.query qaux in
        let ctor = Query.Ctor.If (flag, tau_e, vf.Query.View.ctor) in
        Ok (Query.View.set_entity_view f { Query.View.query; ctor } acc))
      (Ok qv) between
  in
  Ok (Query.View.set_entity_view e { Query.View.query = qe; ctor = tau_e } qv, between)

(* -- Algorithm 2: update views --------------------------------------------- *)

let update_views (st : State.t) env' ~entity ~alpha ~p_ref ~table ~fmap ~between =
  let client' = env'.Query.Env.client in
  let e = entity.Edm.Entity_type.name in
  let set = Option.get (Edm.Schema.set_of_type client' e) in
  ignore alpha;
  let items =
    List.map (fun (a, c) -> Query.Algebra.col_as a c) fmap
    @ List.filter_map
        (fun c ->
          if List.mem_assoc c (List.map (fun (a, b) -> (b, a)) fmap) then None
          else Some (Query.Algebra.null_as c))
        (Relational.Table.column_names table)
  in
  let qt =
    Query.Algebra.Project
      ( items,
        Query.Algebra.Select
          (Query.Cond.Is_of e, Query.Algebra.Scan (Query.Algebra.Entity_set set)) )
  in
  let tau_t = Query.Ctor.Tuple (Relational.Table.column_names table) in
  let adapted =
    List.fold_left
      (fun acc (tbl, (v : Query.View.t)) ->
        let query =
          Query.Algebra.map_conditions
            (Algo.adapt_cond client' ~p_ref ~between ~e)
            v.Query.View.query
        in
        Query.View.set_table_view tbl { v with Query.View.query } acc)
      Query.View.no_update_views
      (Query.View.update_view_bindings st.State.update_views)
  in
  Query.View.set_table_view table.Relational.Table.name
    { Query.View.query = qt; ctor = tau_t }
    adapted

(* -- fragment adaptation (Section 3.1.3) ----------------------------------- *)

let fragments (st : State.t) env' ~entity ~p_ref ~table ~fmap ~between =
  let client' = env'.Query.Env.client in
  let e = entity.Edm.Entity_type.name in
  let set = Option.get (Edm.Schema.set_of_type client' e) in
  let sigma_star =
    Mapping.Fragments.map
      (fun f ->
        {
          f with
          Mapping.Fragment.client_cond =
            Algo.adapt_cond client' ~p_ref ~between ~e f.Mapping.Fragment.client_cond;
        })
      st.State.fragments
  in
  let phi_e =
    Mapping.Fragment.entity ~set ~cond:(Query.Cond.Is_of e)
      ~table:table.Relational.Table.name fmap
  in
  Mapping.Fragments.add phi_e sigma_star

(* -- validation (Section 3.1.4) --------------------------------------------- *)

(* Emit the obligations of Section 3.1.4's checks 1–3; the caller discharges
   the batch. *)
let validation_obligations env' frags' uv' ~table ~fmap ~between =
  let client' = env'.Query.Env.client in
  (* Check 1: associations with endpoints strictly between E and P. *)
  let* check1 = Algo.assoc_endpoint_obligations env' frags' uv' ~etypes:between in
  (* Check 2: foreign keys of the association tables that share columns with
     the association image. *)
  let* check2 =
    Algo.collect
      (fun f_type ->
        Algo.collect
          (fun (a : Edm.Association.t) ->
            match Mapping.Fragments.of_assoc frags' a.Edm.Association.name with
            | [] -> Ok []
            | frag :: _ -> (
                let r = frag.Mapping.Fragment.table in
                match Relational.Schema.find_table env'.Query.Env.store r with
                | None -> Ok []
                | Some tbl ->
                    let beta = Mapping.Fragment.cols frag in
                    Algo.collect
                      (fun (fk : Relational.Table.foreign_key) ->
                        if List.exists (fun c -> List.mem c beta) fk.fk_columns then
                          Algo.fk_obligations env' uv' ~table:r fk
                        else Ok [])
                      tbl.Relational.Table.fks))
          (Edm.Schema.associations_on client' f_type))
      between
  in
  (* Check 3: foreign keys of T that intersect f(α). *)
  let f_alpha = List.map snd fmap in
  let* check3 =
    Algo.collect
      (fun (fk : Relational.Table.foreign_key) ->
        if List.exists (fun c -> List.mem c f_alpha) fk.fk_columns then
          Algo.fk_obligations env' uv' ~table:table.Relational.Table.name fk
        else Ok [])
      table.Relational.Table.fks
  in
  Ok (check1 @ check2 @ check3)

let apply ?jobs (st : State.t) ~entity ~alpha ~p_ref ~table ~fmap =
  let* env' =
    Algo.span "ae.preconditions" (fun () ->
        check_preconditions st ~entity ~alpha ~p_ref ~table ~fmap)
  in
  let* qv', between =
    Algo.span "ae.query-views" (fun () -> query_views st env' ~entity ~alpha ~p_ref ~table ~fmap)
  in
  let uv' =
    Algo.span "ae.update-views" (fun () ->
        update_views st env' ~entity ~alpha ~p_ref ~table ~fmap ~between)
  in
  let frags' =
    Algo.span "ae.fragments" (fun () -> fragments st env' ~entity ~p_ref ~table ~fmap ~between)
  in
  let* obls =
    Algo.span "ae.validate" (fun () ->
        validation_obligations env' frags' uv' ~table ~fmap ~between)
  in
  let* () = Algo.discharge ?jobs obls in
  Ok { State.env = env'; fragments = frags'; query_views = qv'; update_views = uv' }
