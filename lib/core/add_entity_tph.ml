let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

let apply (st : State.t) ~entity ~table ~fmap ~discriminator:(disc, disc_value) =
  let store = st.State.env.Query.Env.store in
  let e = entity.Edm.Entity_type.name in
  let* client' = Algo.lift (Edm.Schema.add_derived entity st.State.env.Query.Env.client) in
  let* tbl =
    match Relational.Schema.find_table store table with
    | Some tbl -> Ok tbl
    | None -> fail "unknown table %s" table
  in
  let* () =
    if Mapping.Fragments.on_table st.State.fragments table <> [] then Ok ()
    else fail "TPH requires table %s to already carry the hierarchy" table
  in
  let att = Edm.Schema.attributes client' e in
  let image = List.map snd fmap in
  let* () = Algo.check_column_map ~attrs:att ~keys:[ Edm.Schema.key_of client' e ] tbl fmap in
  let* () =
    match Relational.Table.domain_of tbl disc with
    | None -> fail "unknown discriminator column %s.%s" table disc
    | Some d ->
        if List.mem disc image then fail "the discriminator column cannot be in f(att(E))"
        else if Datum.Value.member disc_value d then Ok ()
        else fail "discriminator value %s outside the domain of %s.%s"
               (Datum.Value.show disc_value) table disc
  in
  let env' = Query.Env.make ~client:client' ~store in
  let parent = Option.get entity.Edm.Entity_type.parent in
  let set = Option.get (Edm.Schema.set_of_type client' e) in
  (* Validation: the new discriminator region must be free on T.  The
     overlap tests lead the SMO's batch, so a clash is the failure it
     reports. *)
  let disc_cond = Query.Cond.Cmp (disc, Query.Cond.Eq, disc_value) in
  let overlap_obls =
    Algo.span "ae-tph.validate" @@ fun () ->
    List.map
      (fun (g : Mapping.Fragment.t) ->
        let overlap =
          Query.Algebra.project_cols tbl.Relational.Table.key
            (Query.Algebra.Select
               (Query.Cond.And (disc_cond, g.Mapping.Fragment.store_cond),
                Query.Algebra.Scan (Query.Algebra.Table table)))
        in
        let empty =
          Query.Algebra.project_cols tbl.Relational.Table.key
            (Query.Algebra.Select (Query.Cond.False, Query.Algebra.Scan (Query.Algebra.Table table)))
        in
        Containment.Obligation.make ~env:env' ~lhs:overlap ~rhs:empty
          ~name:(lazy ("ae-tph.overlap:" ^ Mapping.Fragment.show g))
          ~on_fail:
            (lazy
              (Printf.sprintf "discriminator %s = %s overlaps the region of fragment %s" disc
                 (Datum.Value.show disc_value) (Mapping.Fragment.show g))))
      (List.filter
         (fun (g : Mapping.Fragment.t) ->
           match g.Mapping.Fragment.client_source with
           | Mapping.Fragment.Set _ -> true
           | Mapping.Fragment.Assoc _ -> false)
         (Mapping.Fragments.on_table st.State.fragments table))
  in
  (* Narrow [IS OF parent] so it no longer captures E: E's rows live
     exclusively in its own discriminator region. *)
  let narrow = Algo.rule_out client' ~between:[ parent ] ~e in
  let phi_e =
    Mapping.Fragment.entity ~set ~cond:(Query.Cond.Is_of e) ~table ~store_cond:disc_cond fmap
  in
  let fragments =
    Algo.span "ae-tph.fragments" @@ fun () ->
    Mapping.Fragments.add phi_e (Algo.adapt_fragments narrow st.State.fragments)
  in
  (* Query views: Algorithm 1 with P = NIL, E's store side read from its
     discriminator region. *)
  let* query_views =
    Algo.span "ae-tph.query-views" @@ fun () ->
    Neighborhood.query_views st env' ~e ~p_ref:None
      ~between:(Edm.Schema.ancestors client' e) [ phi_e ]
  in
  (* Update views: narrow the parent's reach everywhere, then merge the new
     branch into T's view. *)
  let narrowed =
    Algo.span "ae-tph.update-views" @@ fun () ->
    Algo.adapt_update_views narrow st.State.update_views
  in
  let* prev_t =
    match Query.View.table_view narrowed table with
    | Some v -> Ok v
    | None -> fail "table %s has no update view" table
  in
  (* The new type's rows merge into T's view with a FULL OUTER JOIN on the
     table key, per-side columns fused with COALESCE: a UNION ALL would
     duplicate keys whenever an association fragment on T already carries a
     row for a new-type entity (the association set mentions it through an
     ancestor-typed endpoint). *)
  let tkey = tbl.Relational.Table.key in
  let nonkey = Relational.Table.non_key_columns tbl in
  let old_side =
    Query.Algebra.Project
      ( List.map Query.Algebra.col tkey
        @ List.map (fun c -> Query.Algebra.col_as c (c ^ "@old")) nonkey,
        prev_t )
  in
  let new_side =
    Mapping.Fragment.update_side phi_e ~table:tbl ~rename:(fun c ->
        if List.mem c tkey then c else c ^ "@new")
  in
  let qt =
    Query.Algebra.Project
      ( List.map Query.Algebra.col tkey
        @ List.map
            (fun c -> Query.Algebra.coalesce [ c ^ "@old"; c ^ "@new" ] c)
            nonkey,
        Query.Algebra.Join (Query.Join.Full, old_side, new_side, tkey) )
  in
  let update_views = Query.View.set_table_view table qt narrowed in
  (* Remaining validation: foreign keys of T touching f(att(E)), and
     associations on the ancestors (the new entities join their sets). *)
  let* fk_obls =
    Datum.Results.collect
      (fun (fk : Relational.Table.foreign_key) ->
        if List.exists (fun c -> List.mem c image) fk.fk_columns then
          Algo.fk_obligations env' update_views ~table fk
        else Ok [])
      tbl.Relational.Table.fks
  in
  let* assoc_obls =
    Algo.assoc_endpoint_obligations env' fragments update_views
      ~etypes:(Edm.Schema.ancestors client' e)
  in
  Ok
    ( { State.env = env'; fragments; query_views; update_views },
      overlap_obls @ fk_obls @ assoc_obls )
