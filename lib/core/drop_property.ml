let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let apply (st : State.t) ~etype ~attr =
  let client = st.State.env.Query.Env.client in
  let* set =
    match Edm.Schema.set_of_type client etype with
    | Some s -> Ok s
    | None -> fail "unknown entity type %s" etype
  in
  let* client' = Algo.lift (Edm.Schema.remove_attribute ~etype attr client) in
  (* No fragment may condition on the attribute. *)
  let* () =
    Datum.Results.all_ok
      (fun (f : Mapping.Fragment.t) ->
        if List.mem attr (Query.Cond.columns f.Mapping.Fragment.client_cond) then
          fail "attribute %s is tested by fragment %s; drop not supported" attr
            (Mapping.Fragment.show f)
        else Ok ())
      (Mapping.Fragments.of_set st.State.fragments set)
  in
  let key = Edm.Schema.key_of client etype in
  let visited, (fragments, removed) =
    Algo.span "drop-property.fragments" @@ fun () ->
    let before = st.State.fragments in
    (* Another fragment with [f]'s source, conditions and table whose pairs
       include [pairs] implies the equation of [f] cut down to [pairs]. *)
    let implied (f : Mapping.Fragment.t) pairs =
      List.exists
        (fun (g : Mapping.Fragment.t) ->
          g != f
          && Mapping.Fragment.equal { g with pairs = f.pairs } f
          && List.for_all (fun p -> List.mem p g.pairs) pairs)
        (Mapping.Fragments.on_table before f.Mapping.Fragment.table)
    in
    let visited =
      List.filter
        (fun f -> List.mem attr (Mapping.Fragment.attrs f))
        (Mapping.Fragments.of_set before set)
    in
    Obs.Span.tag "fragments_visited" (List.length visited);
    ( visited,
      List.fold_left
        (fun (acc, removed) (f : Mapping.Fragment.t) ->
          let pairs = List.remove_assoc attr f.Mapping.Fragment.pairs in
          (* A fragment left with nothing but the key still says which
             entities the table holds, and so which types they have; drop
             it only when another fragment says the same. *)
          if List.for_all (fun (a, _) -> List.mem a key) pairs && implied f pairs then
            (Mapping.Fragments.remove f acc, true)
          else (Mapping.Fragments.replace f { f with Mapping.Fragment.pairs } acc, removed))
        (before, false) visited )
  in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  (* Every concrete type of the hierarchy must still be covered.  Only a
     removal (which takes every [Fragment.equal] twin) can uncover one: a
     kept fragment loses just the attribute's pair, and no fragment of the
     set tests the attribute (DESIGN §2). *)
  let* () =
    if not removed then Ok ()
    else
      Algo.span "drop-property.coverage" @@ fun () ->
      Datum.Results.all_ok
        (fun ty -> Algo.lift (Mapping.Coverage.attribute_coverage env' fragments ~etype:ty))
        (Edm.Schema.subtypes client' (Edm.Schema.root_of client' etype))
  in
  (* The drop's only store effect is NULL in non-key columns, which no
     foreign key can object to: simple-match exempts NULL references, and a
     foreign key references a key.  So no foreign key is re-proved. *)
  Algo.shrink st env' fragments st.State.query_views ~set:(Some set)
    ~tables:(List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table) visited)
