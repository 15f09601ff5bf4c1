let concrete_types client (f : Mapping.Fragment.t) =
  match f.Mapping.Fragment.client_source with
  | Mapping.Fragment.Set s -> (
      match Edm.Schema.set_root client s with
      | Some root -> Edm.Schema.subtypes client root
      | None -> [])
  | Mapping.Fragment.Assoc _ -> []

(* No entity can satisfy both fragments' conditions. *)
let disjoint client (f : Mapping.Fragment.t) (g : Mapping.Fragment.t) =
  Frag_info.same_set f g
  && List.for_all
       (fun ty ->
         not
           (Query.Cover.satisfiable client ~etype:ty
              (Query.Cond.And (f.Mapping.Fragment.client_cond, g.Mapping.Fragment.client_cond))))
       (concrete_types client f)

(* Every row of [f] has a partner among [g]'s rows. *)
let subset_of client (f : Mapping.Fragment.t) (g : Mapping.Fragment.t) =
  match f.Mapping.Fragment.client_source, g.Mapping.Fragment.client_source with
  | Mapping.Fragment.Set _, Mapping.Fragment.Set _ ->
      Frag_info.same_set f g
      && List.for_all
           (fun ty ->
             Query.Cover.implies client ~etype:ty f.Mapping.Fragment.client_cond
               g.Mapping.Fragment.client_cond)
           (concrete_types client f)
  | Mapping.Fragment.Assoc a, Mapping.Fragment.Set _ -> (
      (* Association rows are keyed by the first endpoint's entities, which
         [g] must cover — and both fragments must live on the same table so
         the keys coincide. *)
      f.Mapping.Fragment.table = g.Mapping.Fragment.table
      &&
      match Edm.Schema.find_association client a with
      | None -> false
      | Some assoc ->
          List.for_all
            (fun ty ->
              Query.Cover.implies client ~etype:ty
                (Query.Cond.Is_of assoc.Edm.Association.end1)
                g.Mapping.Fragment.client_cond)
            (Edm.Schema.subtypes client assoc.Edm.Association.end1))
  | _, Mapping.Fragment.Assoc _ -> false

let combine env ~key branches =
  let client = env.Query.Env.client in
  match branches with
  | [] -> invalid_arg "Fullc.Optimize.combine: no branches"
  | (f0, b0) :: rest ->
      (* A branch is safe to pull out of the n-ary join only when its rows
         can never share a key with ANY other branch — later overlapping
         branches would otherwise merge in the join but not in the union. *)
      let isolated f =
        List.for_all
          (fun (g, _) -> Mapping.Fragment.equal f g || disjoint client f g)
          branches
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
