type part = {
  part_alpha : string list;
  part_cond : Query.Cond.t;
  part_table : Relational.Table.t;
  part_fmap : (string * string) list;
}

let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let check_part client' e part =
  let att = Edm.Schema.attributes client' e in
  let key = Edm.Schema.key_of client' e in
  let* () =
    match List.find_opt (fun a -> not (List.mem_assoc a att)) part.part_alpha with
    | Some a -> fail "αᵢ contains %s, which is not an attribute of %s" a e
    | None -> Ok ()
  in
  let* () =
    match List.find_opt (fun k -> not (List.mem k part.part_alpha)) key with
    | Some k -> fail "αᵢ misses key attribute %s" k
    | None -> Ok ()
  in
  let* () =
    if Query.Cond.type_atoms part.part_cond = [] then Ok ()
    else fail "ψᵢ must be a condition over attributes and constants"
  in
  let* () =
    match
      List.find_opt (fun a -> not (List.mem_assoc a att)) (Query.Cond.columns part.part_cond)
    with
    | Some a -> fail "ψᵢ mentions %s, which is not an attribute of %s" a e
    | None -> Ok ()
  in
  let* () =
    match
      List.find_map
        (function
          | Query.Cond.Cmp (a, _, v) when not (Datum.Value.member v (List.assoc a att)) ->
              Some (a, v)
          | _ -> None)
        (Query.Cond.atoms part.part_cond)
    with
    | Some (a, v) ->
        fail "ψᵢ compares %s to %s, which is outside dom(%s)" a (Datum.Value.to_literal v) a
    | None -> Ok ()
  in
  let* () =
    if Query.Cover.satisfiable client' ~etype:e part.part_cond then Ok ()
    else fail "ψᵢ (%s) is unsatisfiable" (Query.Cond.show part.part_cond)
  in
  Algo.check_column_map
    ~attrs:(List.map (fun a -> (a, List.assoc a att)) part.part_alpha)
    ~keys:[ key ] part.part_table part.part_fmap

let apply (st : State.t) ~entity ~p_ref ~parts =
  let e = entity.Edm.Entity_type.name in
  let* client' = Algo.lift (Edm.Schema.add_derived entity st.State.env.Query.Env.client) in
  let* () = match parts with [] -> fail "AddEntityPart needs at least one partition" | _ -> Ok () in
  (* An Int literal compared with a Decimal attribute becomes the equal
     Decimal, so ψᵢ orders it by value. *)
  let domain = Edm.Schema.attribute_domain client' e in
  let parts =
    List.map (fun pt -> { pt with part_cond = Query.Cond.with_domains domain pt.part_cond }) parts
  in
  let* () = Datum.Results.all_ok (check_part client' e) parts in
  let* () =
    match p_ref with
    | None -> Ok ()
    | Some p ->
        if Edm.Schema.is_proper_ancestor client' ~anc:p ~descendant:e then Ok ()
        else fail "%s is not an ancestor of %s" p e
  in
  (* Fresh, pairwise-distinct tables; extend the store. *)
  let names = List.map (fun pt -> pt.part_table.Relational.Table.name) parts in
  let* () =
    if List.length (List.sort_uniq String.compare names) = List.length names then Ok ()
    else fail "partition tables must be distinct"
  in
  let* store' =
    List.fold_left
      (fun acc pt ->
        let* store = acc in
        Algo.add_fresh_table st.State.fragments store pt.part_table pt.part_fmap)
      (Ok st.State.env.Query.Env.store)
      parts
  in
  let env' = Query.Env.make ~client:client' ~store:store' in
  (* The Section 3.3 coverage test: every attribute outside att(P) must be
     covered for all attribute valuations. *)
  let att_p = match p_ref with None -> [] | Some p -> Edm.Schema.attribute_names client' p in
  let* () =
    Algo.span "aep.coverage" @@ fun () ->
    Datum.Results.all_ok
      (fun a ->
        if List.mem a att_p then Ok ()
        else
          let selected =
            List.filter_map
              (fun pt ->
                if
                  List.mem a pt.part_alpha
                  || List.mem_assoc a (Query.Cond.determined_constants pt.part_cond)
                then Some pt.part_cond
                else None)
              parts
          in
          if selected = [] then fail "attribute %s of %s is stored by no partition" a e
          else if Query.Cover.tautology client' ~etype:e (Query.Cond.disj selected) then Ok ()
          else
            fail "the partition conditions covering attribute %s of %s are not a tautology" a e)
      (Edm.Schema.attribute_names client' e)
  in
  (* Views and fragments: Algorithms 1 and 2 over the partitions. *)
  let set = Option.get (Edm.Schema.set_of_type client' e) in
  let phis =
    List.map
      (fun pt ->
        Mapping.Fragment.entity ~set
          ~cond:
            (match pt.part_cond with
            | Query.Cond.True -> Query.Cond.Is_of e
            | psi -> Query.Cond.And (Query.Cond.Is_of e, psi))
          ~table:pt.part_table.Relational.Table.name pt.part_fmap)
      parts
  in
  let* st', between = Neighborhood.add_type ~phase:"aep" st env' ~entity ~p_ref phis in
  let* () = Algo.assoc_rows_keep_entities env' st'.State.fragments ~e ~etypes:between in
  (* Validation (Section 3.1.4), as one batch: checks 1 and 2 on the types
     between E and P, then check 3, the foreign keys of each new table that
     meet f(αᵢ) — the 2^n checks of the AEP-np benchmarks. *)
  let uv' = st'.State.update_views in
  Algo.span "aep.validate" @@ fun () ->
  let* check1 = Algo.assoc_endpoint_obligations env' st'.State.fragments uv' ~etypes:between in
  let* check2 = Algo.assoc_table_fk_obligations env' st'.State.fragments uv' ~etypes:between in
  let* check3 =
    Datum.Results.collect
      (fun pt ->
        Algo.image_fk_obligations env' st'.State.fragments uv'
          ~table:pt.part_table.Relational.Table.name ~columns:(List.map snd pt.part_fmap))
      parts
  in
  Ok (st', check1 @ check2 @ check3)
