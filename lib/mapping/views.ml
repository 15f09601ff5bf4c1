let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* -- per-fragment analysis ------------------------------------------------ *)

let same_set (f : Fragment.t) (g : Fragment.t) =
  match f.Fragment.client_source, g.Fragment.client_source with
  | Fragment.Set a, Fragment.Set b -> a = b
  | _, _ -> false

let tag_name i = Printf.sprintf "_from%d" (i + 1)
let local_name a i = Printf.sprintf "%s@%d" a (i + 1)

(* Column [a] of a view fused from the indexed fragments: the fragment-local
   column of each fragment that [supplies] it, renamed when there is one,
   COALESCEd when there are several, NULL when there is none. *)
let fuse_item indexed_frags ~supplies a =
  match
    List.filter_map (fun (i, f) -> if supplies f a then Some (local_name a i) else None) indexed_frags
  with
  | [] -> Query.Algebra.null_as a
  | [ s ] -> Query.Algebra.col_as s a
  | sources -> Query.Algebra.coalesce sources a

(* A fragment supplies the attributes it maps or its ψ forces to a
   constant. *)
let stores_or_determines (f : Fragment.t) a =
  Fragment.mem_attr f a || Query.Cond.determines f.Fragment.client_cond a

(* -- the Section-6 optimizer ---------------------------------------------- *)

let concrete_types client (f : Fragment.t) =
  match f.Fragment.client_source with
  | Fragment.Set s -> (
      match Edm.Schema.set_root client s with
      | Some root -> Edm.Schema.subtypes client root
      | None -> [])
  | Fragment.Assoc _ -> []

(* No entity can satisfy both fragments' conditions. *)
let disjoint client (f : Fragment.t) (g : Fragment.t) =
  same_set f g
  && List.for_all
       (fun ty ->
         not
           (Query.Cover.satisfiable client ~etype:ty
              (Query.Cond.And (f.Fragment.client_cond, g.Fragment.client_cond))))
       (concrete_types client f)

(* Every row of [f] has a partner among [g]'s rows. *)
let subset_of client (f : Fragment.t) (g : Fragment.t) =
  match f.Fragment.client_source, g.Fragment.client_source with
  | Fragment.Set _, Fragment.Set _ ->
      same_set f g
      && List.for_all
           (fun ty ->
             Query.Cover.implies client ~etype:ty f.Fragment.client_cond g.Fragment.client_cond)
           (concrete_types client f)
  | Fragment.Assoc a, Fragment.Set _ -> (
      (* Association rows are keyed by the first endpoint's entities, which
         [g] must cover — and both fragments must live on the same table so
         the keys coincide. *)
      f.Fragment.table = g.Fragment.table
      &&
      match Edm.Schema.find_association client a with
      | None -> false
      | Some assoc ->
          List.for_all
            (fun ty ->
              Query.Cover.implies client ~etype:ty
                (Query.Cond.Is_of assoc.Edm.Association.end1)
                g.Fragment.client_cond)
            (Edm.Schema.subtypes client assoc.Edm.Association.end1))
  | _, Fragment.Assoc _ -> false

(* The optimized join/union tree of the tagged per-fragment branches, in
   fragment order; with no applicable rewrite, the plain FOJ chain. *)
let combine env ~key branches =
  let client = env.Query.Env.client in
  match branches with
  | [] -> invalid_arg "Mapping.Views.combine: no branches"
  | (f0, b0) :: rest ->
      (* A branch is safe to pull out of the n-ary join only when its rows
         can never share a key with ANY other branch — later overlapping
         branches would otherwise merge in the join but not in the union. *)
      let isolated f =
        List.for_all (fun (g, _) -> Fragment.equal f g || disjoint client f g) branches
      in
      let joined, _placed, deferred =
        List.fold_left
          (fun (joined, placed, deferred) (f, b) ->
            if isolated f then (joined, placed, (f, b) :: deferred)
            else
              let kind =
                if List.exists (fun g -> subset_of client f g) placed then Query.Join.Left
                else Query.Join.Full
              in
              (Query.Algebra.Join (kind, joined, b, key), f :: placed, deferred))
          (b0, [ f0 ], []) rest
      in
      (* Isolated branches are pairwise disjoint, so UNION ALL is exact. *)
      let rec union_in tree = function
        | [] -> tree
        | (_, b) :: rest -> union_in (Query.Algebra.align_union env tree b) rest
      in
      union_in joined (List.rev deferred)

let rec stats = function
  | Query.Algebra.Scan _ -> (0, 0, 0)
  | Query.Algebra.Select (_, q) | Query.Algebra.Project (_, q) -> stats q
  | Query.Algebra.Join (kind, l, r, _) ->
      add (stats l) (stats r)
        (match kind with Query.Join.Inner -> (0, 0, 0) | Left -> (0, 1, 0) | Full -> (1, 0, 0))
  | Query.Algebra.Union_all (l, r) -> add (stats l) (stats r) (0, 0, 1)

and add (a1, b1, c1) (a2, b2, c2) (a3, b3, c3) = (a1 + a2 + a3, b1 + b2 + b3, c1 + c2 + c3)

(* -- the fuser ------------------------------------------------------------ *)

let fuse ~optimize env ~key ~supplies ifr branches columns extra =
  let joined =
    if optimize then
      Obs.Span.with_ ~name:"fullc.optimize" (fun () ->
          combine env ~key (List.map2 (fun (_, f) b -> (f, b)) ifr branches))
    else
      match branches with
      | [] -> invalid_arg "Mapping.Views.fuse: no branch"
      | first :: rest ->
          List.fold_left (fun acc q -> Query.Algebra.Join (Query.Join.Full, acc, q, key)) first rest
  in
  let item c = if List.mem c key then Query.Algebra.col c else fuse_item ifr c ~supplies in
  Query.Algebra.Project (List.fold_right (fun c items -> item c :: items) columns extra, joined)

(* -- query views ---------------------------------------------------------- *)

(* Hierarchy attributes in root-first declaration order. *)
let hierarchy_attrs client root =
  List.concat_map
    (fun ty ->
      match Edm.Schema.find_type client ty with
      | Some e -> Edm.Entity_type.declared_names e
      | None -> [])
    (Edm.Schema.subtypes client root)
  |> List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) []

let store_projection ~key ?(keep = fun _ -> true) ?index ?tag (f : Fragment.t) =
  let name a = match index with Some i -> local_name a i | None -> a in
  let items =
    List.filter_map
      (fun (a, c) ->
        if List.mem a key then Some (Query.Algebra.col_as c a)
        else if keep a then Some (Query.Algebra.col_as c (name a))
        else None)
      f.Fragment.pairs
    @ List.filter_map
        (fun (a, v) ->
          if List.mem a key || List.mem a (Fragment.attrs f) || not (keep a) then None
          else Some (Query.Algebra.const v (name a)))
        (Query.Cond.determined_constants f.Fragment.client_cond)
    @ match tag with Some t -> [ Query.Algebra.tag t ] | None -> []
  in
  Query.Algebra.Project (items, Fragment.store_side f)

let fused_store_query env ~key ~keep frags columns =
  let ifr = List.mapi (fun i f -> (i, f)) frags in
  fuse ~optimize:false env ~key ~supplies:stores_or_determines ifr
    (List.map (fun (i, f) -> store_projection ~key ~keep ~index:i f) ifr)
    columns []

let fused_query ~optimize env frags ~set =
  let client = env.Query.Env.client in
  let* root =
    match Edm.Schema.set_root client set with
    | Some r -> Ok r
    | None -> fail "unknown entity set %s" set
  in
  let* set_frags =
    match Fragments.of_set frags set with
    | [] -> fail "entity set %s has no mapping fragments" set
    | l -> Ok l
  in
  let key = Edm.Schema.key_of client root in
  let ifr = List.mapi (fun i f -> (i, f)) set_frags in
  (* Each fragment's store query is tagged with its provenance flag. *)
  let tagged = List.map (fun (i, f) -> store_projection ~key ~index:i ~tag:(tag_name i) f) ifr in
  let flags = List.map (fun (i, _) -> Query.Algebra.col (tag_name i)) ifr in
  Ok
    ( root,
      ifr,
      fuse ~optimize env ~key ~supplies:stores_or_determines ifr tagged
        (hierarchy_attrs client root) flags )

(* Fragments that must / may contain entities of exactly [etype]. *)
let cover_split client ifr ~etype =
  let must, may =
    List.partition
      (fun (_, f) -> Query.Cover.tautology client ~etype f.Fragment.client_cond)
      (List.filter (fun (_, f) -> Query.Cover.satisfiable client ~etype f.Fragment.client_cond) ifr)
  in
  (must, may)

let flag_true i = Query.Cond.Cmp (tag_name i, Query.Cond.Eq, Datum.Value.Bool true)

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
      (case_order client (List.map (fun ty -> (ty, cover_split client ifr ~etype:ty)) types))
  in
  let* () =
    match covered with [] -> fail "no entity type of set %s is covered" set | _ -> Ok ()
  in
  (* Two types under one guard read back as whichever the CASE tests first:
     nothing in the store tells their entities apart.  Sorted by guard,
     equal guards are adjacent. *)
  let rec alike = function
    | (a, g) :: ((b, g') :: _ as rest) -> if Query.Cond.equal g g' then Some (a, b) else alike rest
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
            (fun (ty', g) -> if Edm.Schema.is_subtype client ~sub:ty' ~sup:ty then Some g else None)
            covered))
  in
  Ok
    (List.map
       (fun ty ->
         let query = if ty = root then fused else Query.Algebra.Select (member_guard ty, fused) in
         (ty, { Query.View.query; ctor }))
       types)

let for_assoc frags ~assoc = Result.map Fragment.store_query (Fragments.assoc_fragment frags assoc)

(* -- update views --------------------------------------------------------- *)

let for_table ?(optimize = false) env frags ~table =
  Obs.Span.with_ ~name:"update-views.table" ~attrs:[ ("table", table) ] @@ fun () ->
  let* tbl =
    match Relational.Schema.find_table env.Query.Env.store table with
    | Some tbl -> Ok tbl
    | None -> fail "unknown table %s" table
  in
  let* table_frags =
    match Fragments.on_table frags table with
    | [] -> fail "table %s has no mapping fragments" table
    | l -> Ok l
  in
  let key = tbl.Relational.Table.key in
  let* () =
    List.fold_left
      (fun acc (f : Fragment.t) ->
        let* () = acc in
        match List.find_opt (fun k -> not (Coverage.writes f k)) key with
        | Some k -> fail "fragment %s does not map key column %s.%s" (Fragment.show f) table k
        | None -> Ok ())
      (Ok ()) table_frags
  in
  let ifr = List.mapi (fun i f -> (i, f)) table_frags in
  (* Each fragment's update side, its non-key columns under fragment-local
     names so the fused view can tell the fragments' writes apart. *)
  let sides =
    List.map
      (fun (i, f) ->
        Fragment.update_side f ~rename:(fun c -> if List.mem c key then c else local_name c i))
      ifr
  in
  Ok
    (fuse ~optimize env ~key ~supplies:Coverage.writes ifr sides
       (Relational.Table.column_names tbl) [])
