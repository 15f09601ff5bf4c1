let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let indexed frags = List.mapi (fun i f -> (i, f)) frags

(* Hierarchy attributes in root-first declaration order. *)
let hierarchy_attrs client root =
  List.concat_map
    (fun ty ->
      match Edm.Schema.find_type client ty with
      | Some e -> Edm.Entity_type.declared_names e
      | None -> [])
    (Edm.Schema.subtypes client root)
  |> List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) []

let store_projection ~key ?(keep = fun _ -> true) ?index ?tag (f : Mapping.Fragment.t) =
  let name a = match index with Some i -> Frag_info.local_name a i | None -> a in
  let items =
    List.filter_map
      (fun (a, c) ->
        if List.mem a key then Some (Query.Algebra.col_as c a)
        else if keep a then Some (Query.Algebra.col_as c (name a))
        else None)
      f.Mapping.Fragment.pairs
    @ List.filter_map
        (fun (a, v) ->
          if List.mem a key || List.mem a (Mapping.Fragment.attrs f) || not (keep a) then None
          else Some (Query.Algebra.const v (name a)))
        (Query.Cond.determined_constants f.Mapping.Fragment.client_cond)
    @ match tag with Some t -> [ Query.Algebra.tag t ] | None -> []
  in
  Query.Algebra.Project (items, Mapping.Fragment.store_side f)

(* A fragment supplies the attributes it maps or its ψ forces to a
   constant. *)
let fused_item ifr a =
  Frag_info.fuse_item ifr a ~supplies:(fun (f : Mapping.Fragment.t) a ->
      Mapping.Fragment.mem_attr f a || Query.Cond.determines f.Mapping.Fragment.client_cond a)

(* Tagged store query of one fragment of a set: other mapped attributes
   under fragment-local names, plus the fragment's provenance flag. *)
let tagged_store_query key i f = store_projection ~key ~index:i ~tag:(Frag_info.tag_name i) f

let fused_query ?(optimize = false) env frags ~set =
  let client = env.Query.Env.client in
  let* root =
    match Edm.Schema.set_root client set with
    | Some r -> Ok r
    | None -> fail "unknown entity set %s" set
  in
  let* set_frags =
    match Mapping.Fragments.of_set frags set with
    | [] -> fail "entity set %s has no mapping fragments" set
    | l -> Ok l
  in
  let key = Edm.Schema.key_of client root in
  let ifr = indexed set_frags in
  let tagged = List.map (fun (i, f) -> tagged_store_query key i f) ifr in
  let combined =
    if optimize then
      Obs.Span.with_ ~name:"fullc.optimize" ~attrs:[ ("set", set) ] (fun () ->
          Optimize.combine env ~key (List.map2 (fun (_, f) b -> (f, b)) ifr tagged))
    else
      match tagged with
      | [] -> assert false
      | first :: rest ->
          List.fold_left (fun acc q -> Query.Algebra.Join (Query.Join.Full, acc, q, key)) first rest
  in
  let attrs = hierarchy_attrs client root in
  let items =
    List.map
      (fun a ->
        if List.mem a key then Query.Algebra.col a else fused_item ifr a)
      attrs
    @ List.map (fun (i, _) -> Query.Algebra.col (Frag_info.tag_name i)) ifr
  in
  Ok (root, ifr, Query.Algebra.Project (items, combined))

(* Fragments that must / may contain entities of exactly [etype]. *)
let cover_split client ifr ~etype =
  let must, may =
    List.partition
      (fun (_, f) -> Query.Cover.tautology client ~etype f.Mapping.Fragment.client_cond)
      (List.filter
         (fun (_, f) -> Query.Cover.satisfiable client ~etype f.Mapping.Fragment.client_cond)
         ifr)
  in
  (must, may)

let flag_true i = Query.Cond.Cmp (Frag_info.tag_name i, Query.Cond.Eq, Datum.Value.Bool true)

let guard_of_split (must, may) =
  match must, may with
  | [], [] -> None
  | _, _ ->
      let conj = List.map (fun (i, _) -> flag_true i) must in
      let disj = List.map (fun (i, _) -> flag_true i) may in
      let parts = conj @ (match disj with [] -> [] | _ -> [ Query.Cond.disj disj ]) in
      Some (Query.Cond.conj parts)

(* Order concrete types, each with its cover split, for the CASE: most
   constrained first, then deepest, then by name.  Each sort key is worked
   out once. *)
let case_order client splits =
  let keyed =
    List.map
      (fun ((ty, (must, may)) as s) ->
        (List.length must + List.length may, List.length (Edm.Schema.ancestors client ty), s))
      splits
  in
  List.sort
    (fun (w, d, (a, _)) (w', d', (b, _)) ->
      match compare w' w with
      | 0 -> ( match compare d' d with 0 -> String.compare a b | c -> c)
      | c -> c)
    keyed
  |> List.map (fun (_, _, s) -> s)

let for_set ?(optimize = false) env frags ~set =
  Obs.Span.with_ ~name:"query-views.set" ~attrs:[ ("set", set) ] @@ fun () ->
  let client = env.Query.Env.client in
  let* root, ifr, fused = fused_query ~optimize env frags ~set in
  let types = Edm.Schema.subtypes client root in
  let covered =
    List.filter_map
      (fun (ty, split) ->
        match guard_of_split split with
        | Some g -> Some (ty, Query.Cond.simplify g)
        | None -> None)
      (case_order client
         (List.map (fun ty -> (ty, cover_split client ifr ~etype:ty)) types))
  in
  let* () =
    match covered with [] -> fail "no entity type of set %s is covered" set | _ -> Ok ()
  in
  (* Two types under one guard read back as whichever the CASE tests first:
     nothing in the store tells their entities apart.  Sorted by guard,
     equal guards are adjacent. *)
  let rec alike = function
    | (a, g) :: ((b, g') :: _ as rest) ->
        if Query.Cond.equal g g' then Some (a, b) else alike rest
    | _ -> None
  in
  let* () =
    match alike (List.sort (fun (_, g) (_, g') -> Query.Cond.compare g g') covered) with
    | Some (a, b) ->
        fail
          "entity types %s and %s of set %s have the same guard: the store cannot tell them \
           apart"
          a b set
    | None -> Ok ()
  in
  let leaf ty = Query.Ctor.Entity { etype = ty; attrs = Edm.Schema.attribute_names client ty } in
  let rec build = function
    | [] -> assert false
    | [ (ty, _) ] -> leaf ty
    | (ty, g) :: rest -> Query.Ctor.If (g, leaf ty, build rest)
  in
  let ctor = build covered in
  let member_guard ty =
    Query.Cond.simplify
      (Query.Cond.disj
         (List.filter_map
            (fun (ty', g) ->
              if Edm.Schema.is_subtype client ~sub:ty' ~sup:ty then Some g else None)
            covered))
  in
  Ok
    (List.map
       (fun ty ->
         let query =
           if ty = root then fused else Query.Algebra.Select (member_guard ty, fused)
         in
         (ty, { Query.View.query; ctor }))
       types)

let for_assoc frags ~assoc =
  Result.map Mapping.Fragment.store_query (Mapping.Fragments.assoc_fragment frags assoc)

let all ?(optimize = false) env frags =
  let client = env.Query.Env.client in
  let* qv =
    List.fold_left
      (fun acc (set, _root) ->
        let* acc = acc in
        let* views = for_set ~optimize env frags ~set in
        Ok (List.fold_left (fun acc (ty, v) -> Query.View.set_entity_view ty v acc) acc views))
      (Ok Query.View.no_query_views)
      (Edm.Schema.entity_sets client)
  in
  List.fold_left
    (fun acc (a : Edm.Association.t) ->
      let* acc = acc in
      let* v = for_assoc frags ~assoc:a.Edm.Association.name in
      Ok (Query.View.set_assoc_view a.Edm.Association.name v acc))
    (Ok qv) (Edm.Schema.associations client)
