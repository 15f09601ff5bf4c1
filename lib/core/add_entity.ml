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
           non-key part of α must be new to the hierarchy. *)
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

(* -- validation (Section 3.1.4) --------------------------------------------- *)

(* Emit the obligations of Section 3.1.4's checks 1–3. *)
let validation_obligations env' frags' uv' ~table ~fmap ~between =
  (* Check 1: associations with endpoints strictly between E and P. *)
  let* check1 = Algo.assoc_endpoint_obligations env' frags' uv' ~etypes:between in
  (* Check 2: foreign keys of the association tables that share columns with
     the association image. *)
  let* check2 = Algo.assoc_table_fk_obligations env' frags' uv' ~etypes:between in
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

let apply (st : State.t) ~entity ~alpha ~p_ref ~table ~fmap =
  let* env' =
    Algo.span "ae.preconditions" (fun () ->
        check_preconditions st ~entity ~alpha ~p_ref ~table ~fmap)
  in
  let e = entity.Edm.Entity_type.name in
  let set = Option.get (Edm.Schema.set_of_type env'.Query.Env.client e) in
  (* φ_E: the one partition, ψ = TRUE. *)
  let phi_e =
    Mapping.Fragment.entity ~set ~cond:(Query.Cond.Is_of e) ~table:table.Relational.Table.name fmap
  in
  let* st', between = Neighborhood.add_type ~phase:"ae" st env' ~entity ~p_ref [ phi_e ] in
  let* () = Algo.assoc_rows_keep_entities env' st'.State.fragments ~e ~etypes:between in
  let* obls =
    Algo.span "ae.validate" (fun () ->
        validation_obligations env' st'.State.fragments st'.State.update_views ~table ~fmap ~between)
  in
  Ok (st', obls)
