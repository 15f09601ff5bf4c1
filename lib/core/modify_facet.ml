let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt
let widen_attribute (st : State.t) ~etype ~attr dom =
  let env = st.State.env in
  let* client' = Algo.lift (Edm.Schema.widen_attribute ~etype attr dom env.Query.Env.client) in
  (* Every column the attribute maps to must subsume the widened domain. *)
  let* set =
    match Edm.Schema.set_of_type client' etype with
    | Some s -> Ok s
    | None -> fail "entity type %s belongs to no set" etype
  in
  let* () =
    Algo.span "widen.domain-checks" @@ fun () ->
    Datum.Results.all_ok
      (fun (f : Mapping.Fragment.t) ->
        match Mapping.Fragment.col_of f attr with
        | None -> Ok ()
        | Some col -> (
            match
              Relational.Schema.find_table env.Query.Env.store f.Mapping.Fragment.table
            with
            | None -> fail "unknown table %s" f.Mapping.Fragment.table
            | Some tbl -> (
                match Relational.Table.domain_of tbl col with
                | Some d when Datum.Domain.subsumes ~wide:d ~narrow:dom -> Ok ()
                | Some _ ->
                    fail "column %s.%s cannot hold the widened domain of %s.%s"
                      f.Mapping.Fragment.table col etype attr
                | None -> fail "unknown column %s.%s" f.Mapping.Fragment.table col)))
      (Mapping.Fragments.of_set st.State.fragments set)
  in
  (* Fragments and views are domain-agnostic: only the schema changes. *)
  Ok { st with State.env = Query.Env.make ~client:client' ~store:env.Query.Env.store }

let tightened before after =
  let rank = function
    | Edm.Association.Many -> 2
    | Edm.Association.Zero_or_one -> 1
    | Edm.Association.One -> 0
  in
  rank after < rank before

let set_multiplicity (st : State.t) ~assoc (m1, m2) =
  let env = st.State.env in
  let* a =
    match Edm.Schema.find_association env.Query.Env.client assoc with
    | Some a -> Ok a
    | None -> fail "unknown association %s" assoc
  in
  let* () =
    Algo.span "mult.enforceability" @@ fun () ->
    if not (tightened a.Edm.Association.mult2 m2 || tightened a.Edm.Association.mult1 m1) then
      Ok ()
    else
      (* Tightening is only enforceable under the key/foreign-key layout:
         the association keyed by the first endpoint's key stores at most
         one partner per entity, matching mult2 <= 0..1 (and mult1 is a
         client-side constraint the store cannot violate). *)
      let* frag = Algo.lift (Mapping.Fragments.assoc_fragment st.State.fragments assoc) in
      let* tbl =
        match Relational.Schema.find_table env.Query.Env.store frag.Mapping.Fragment.table with
        | Some tbl -> Ok tbl
        | None -> fail "unknown table %s" frag.Mapping.Fragment.table
      in
      let key1 = Edm.Schema.key_of env.Query.Env.client a.Edm.Association.end1 in
      let cols1 =
        List.filter_map
          (fun k ->
            Mapping.Fragment.col_of frag (Edm.Association.qualify ~etype:a.Edm.Association.end1 k))
          key1
      in
      if List.sort String.compare cols1 = List.sort String.compare tbl.Relational.Table.key
      then Ok ()
      else
        fail
          "association %s is not stored keyed by its first endpoint; the tightened multiplicity \
           cannot be enforced"
          assoc
  in
  let* client' = Algo.lift (Edm.Schema.set_multiplicity ~assoc (m1, m2) env.Query.Env.client) in
  Ok { st with State.env = Query.Env.make ~client:client' ~store:env.Query.Env.store }
