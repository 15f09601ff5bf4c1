let ( let* ) = Result.bind
let fail fmt = Algo.fail fmt

module A = Query.Algebra

(* -- Algorithm 1: query views --------------------------------------------- *)

(* E's store side: the one partition's projection, or the keyed full outer
   join of all of them with each attribute fused from the partitions that
   store or determine it.  Attributes of P are read from P's view and left
   out.  Returns the side without and with the provenance flag t_E; both
   read the partitions through the same node. *)
let store_side env ~key ~own ~keep ~te phis =
  let side =
    match phis with
    | [ phi ] -> Mapping.Views.store_projection ~key ~keep phi
    | _ -> Mapping.Views.fused_store_query env ~key ~keep phis (key @ own)
  in
  match side with
  | A.Project (items, base) -> (side, A.Project (items @ [ A.tag te ], base))
  | _ -> invalid_arg "Neighborhood.store_side: not a projection"

let query_views (st : State.t) env' ~e ~p_ref ~between phis =
  let client' = env'.Query.Env.client in
  let key = Edm.Schema.key_of client' e in
  let te = Algo.tag_for e in
  let tau_e = Query.Ctor.Entity { etype = e; attrs = Edm.Schema.attribute_names client' e } in
  let from_p = match p_ref with None -> [] | Some p -> Edm.Schema.attribute_names client' p in
  let keep a = not (List.mem a from_p) in
  let own =
    List.filter (fun a -> keep a && not (List.mem a key)) (Edm.Schema.attribute_names client' e)
  in
  let side, side_tagged = store_side env' ~key ~own ~keep ~te phis in
  let prev ty =
    match Query.View.entity_view st.State.query_views ty with
    | Some v -> Ok v
    | None -> fail "no previous query view for entity type %s" ty
  in
  (* A previous view can yield a column named like one of E's own attributes
     when another type of the hierarchy declares that name (an attribute E
     re-stores below a grandparent, or a sibling's namesake).  Such a column
     is NULL on E's rows, which no previous fragment stores.  The previous
     views yield only tags and the attributes of the hierarchy before E, so
     they are typed only when one of those is among E's own. *)
  let namesakes =
    let root = Edm.Schema.root_of client' e in
    List.filter (fun a -> Edm.Schema.hierarchy_attribute st.State.env.Query.Env.client root a <> None) own
  in
  (* The previous views share most of their subterms: type each distinct
     one once.  The lists are in reverse producer order
     ([A.infer_step]'s shared form), so a join chain's lists share their
     tails; [clash] only tests membership, and a projection over them is
     built with [rev_map], which restores producer order. *)
  let columns =
    let infer = A.typing env' in
    fun q ->
      match infer q with
      | Ok cols -> cols
      | Error msg -> invalid_arg ("Neighborhood.query_views: " ^ msg)
  in
  let clash q =
    match namesakes with
    | [] -> []
    | _ ->
        let cols = columns q in
        List.filter (fun a -> List.mem a cols) namesakes
  in
  let* qe, qaux =
    match p_ref with
    | None -> Ok (side, side_tagged)
    | Some p ->
        let* vp = prev p in
        let qp =
          match clash vp.Query.View.query with
          | [] -> vp.Query.View.query
          | drop ->
              A.Project
                ( List.fold_left
                    (fun items c -> if List.mem c drop then items else A.col c :: items)
                    [] (columns vp.Query.View.query),
                  vp.Query.View.query )
        in
        Ok
          ( A.Join (Query.Join.Inner, qp, side, key),
            A.Join (Query.Join.Inner, qp, side_tagged, key) )
  in
  (* P and its ancestors: the tagged LEFT OUTER JOIN, a namesake column
     coalesced from E's side. *)
  let loj q =
    match clash q with
    | [] -> A.Join (Query.Join.Left, q, side_tagged, key)
    | fused ->
        let renamed a = a ^ "@" ^ e in
        let right =
          A.Project
            ( List.map A.col key
              @ List.map (fun a -> if List.mem a fused then A.col_as a (renamed a) else A.col a) own
              @ [ A.col te ],
              side_tagged )
        in
        A.Project
          ( List.rev_map
              (fun c -> if List.mem c fused then A.coalesce [ renamed c; c ] c else A.col c)
              (columns q)
            @ List.map A.col (List.filter (fun a -> not (List.mem a fused)) own)
            @ [ A.col te ],
            A.Join (Query.Join.Left, q, right, key) )
  in
  (* The previous views share their constructors; extend each shared one
     once. *)
  let flag = Query.Cond.Cmp (te, Query.Cond.Eq, Datum.Value.Bool true) in
  let extended = ref [] in
  let extend ctor =
    match List.assq_opt ctor !extended with
    | Some c -> c
    | None ->
        let c = Query.Ctor.If (flag, tau_e, ctor) in
        extended := (ctor, c) :: !extended;
        c
  in
  let patch rewrite acc f =
    let* acc = acc in
    let* vf = prev f in
    Ok
      (Query.View.set_entity_view f
         { Query.View.query = rewrite vf.Query.View.query; ctor = extend vf.Query.View.ctor }
         acc)
  in
  let anc = match p_ref with None -> [] | Some p -> p :: Edm.Schema.ancestors client' p in
  let* qv = List.fold_left (patch loj) (Ok st.State.query_views) anc in
  (* Types strictly between E and P: the aligned UNION ALL. *)
  let align q = Query.Algebra.align_union env' q qaux in
  let* qv = List.fold_left (patch align) (Ok qv) between in
  Ok (Query.View.set_entity_view e { Query.View.query = qe; ctor = tau_e } qv)

(* -- Algorithm 2: update views --------------------------------------------- *)

(* The types whose atoms [Algo.adapt_cond] rewrites. *)
let affected ~p_ref ~between = Option.fold ~none:between ~some:(fun p -> p :: between) p_ref

let update_views (st : State.t) env' ~e ~p_ref ~between phis =
  let client' = env'.Query.Env.client in
  List.fold_left
    (fun acc (phi : Mapping.Fragment.t) ->
      let name = phi.Mapping.Fragment.table in
      let table = Relational.Schema.get_table env'.Query.Env.store name in
      Query.View.set_table_view name (Mapping.Fragment.update_side ~table phi) acc)
    (Algo.adapt_update_views st.State.fragments ~types:(affected ~p_ref ~between)
       (Algo.adapt_cond client' ~p_ref ~between ~e)
       st.State.update_views)
    phis

(* -- fragment adaptation (Section 3.1.3) ----------------------------------- *)

let fragments (st : State.t) env' ~e ~p_ref ~between phis =
  let sigma_star =
    Algo.adapt_fragments ~types:(affected ~p_ref ~between)
      (Algo.adapt_cond env'.Query.Env.client ~p_ref ~between ~e)
      st.State.fragments
  in
  List.fold_left (fun acc phi -> Mapping.Fragments.add phi acc) sigma_star phis

let add_type ~phase (st : State.t) env' ~entity ~p_ref phis =
  let e = entity.Edm.Entity_type.name in
  let between = Edm.Schema.strictly_between env'.Query.Env.client ~low:e ~high:p_ref in
  let span step f = Algo.span (phase ^ "." ^ step) f in
  let* query_views =
    span "query-views" (fun () -> query_views st env' ~e ~p_ref ~between phis)
  in
  let update_views = span "update-views" (fun () -> update_views st env' ~e ~p_ref ~between phis) in
  let fragments = span "fragments" (fun () -> fragments st env' ~e ~p_ref ~between phis) in
  Ok ({ State.env = env'; fragments; query_views; update_views }, between)
