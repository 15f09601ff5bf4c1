let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let all_ok = Algo.all_ok

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
    all_ok
      (fun (f : Mapping.Fragment.t) ->
        if List.mem attr (Query.Cond.columns f.Mapping.Fragment.client_cond) then
          fail "attribute %s is tested by fragment %s; drop not supported" attr
            (Mapping.Fragment.show f)
        else Ok ())
      (Mapping.Fragments.of_set st.State.fragments set)
  in
  let key = Edm.Schema.key_of client etype in
  let fragments =
    Algo.span "drop-property.fragments" @@ fun () ->
    let all = Mapping.Fragments.to_list st.State.fragments in
    (* Another fragment with [f]'s source, conditions and table whose pairs
       include [pairs] implies the equation of [f] cut down to [pairs]. *)
    let implied (f : Mapping.Fragment.t) pairs =
      List.exists
        (fun (g : Mapping.Fragment.t) ->
          g != f
          && Mapping.Fragment.equal { g with pairs = f.pairs } f
          && List.for_all (fun p -> List.mem p g.pairs) pairs)
        all
    in
    List.filter_map
      (fun (f : Mapping.Fragment.t) ->
        if
          not
            (Mapping.Fragment.equal_client_source f.Mapping.Fragment.client_source
               (Mapping.Fragment.Set set))
        then Some f
        else if not (List.mem attr (Mapping.Fragment.attrs f)) then Some f
        else
          let pairs = List.remove_assoc attr f.Mapping.Fragment.pairs in
          (* A fragment left with nothing but the key still says which
             entities the table holds, and so which types they have; drop
             it only when another fragment says the same. *)
          if List.for_all (fun (a, _) -> List.mem a key) pairs && implied f pairs then None
          else Some { f with Mapping.Fragment.pairs })
      all
    |> Mapping.Fragments.of_list
  in
  let env' = Query.Env.make ~client:client' ~store:st.State.env.Query.Env.store in
  (* Every concrete type of the hierarchy must still be covered. *)
  let* () =
    Algo.span "drop-property.coverage" @@ fun () ->
    all_ok
      (fun ty -> Algo.lift (Mapping.Coverage.attribute_coverage env' fragments ~etype:ty))
      (Edm.Schema.subtypes client' (Edm.Schema.root_of client' etype))
  in
  let update_views =
    Algo.drop_orphaned_views ~before:st.State.fragments fragments st.State.update_views
  in
  let st' = { State.env = env'; fragments; query_views = st.State.query_views; update_views } in
  Algo.recompile_set env' fragments ~set st'
