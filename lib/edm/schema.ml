module M = Map.Make (String)

type t = {
  ty : Entity_type.t M.t;        (* entity types by name *)
  kids : string list M.t;        (* parent -> its children, ascending; no empty lists *)
  hattrs : (Datum.Domain.t * string) M.t M.t;
      (* root -> attribute -> its domain and declaring type *)
  sets : string M.t;             (* entity-set name -> root type name *)
  assocs : Association.t M.t;    (* associations by name *)
  ends : string list M.t;        (* type -> the associations it is an endpoint of, ascending *)
}

(* [kids] is an index over the [parent] fields of [ty], [hattrs] one over
   the declared attributes of each hierarchy, and [ends] one over the
   endpoints of [assocs]: every operation that adds, removes or reparents a
   type, changes its attributes, or adds or removes an association updates
   them, so the queries below never scan the type or association map. *)
let empty =
  { ty = M.empty; kids = M.empty; hattrs = M.empty; sets = M.empty; assocs = M.empty; ends = M.empty }

(* [index] with [c] in [key]'s ascending list. *)
let index_add ~key c index =
  let rec insert = function
    | [] -> [ c ]
    | x :: rest as l -> if String.compare c x < 0 then c :: l else x :: insert rest
  in
  M.update key (fun l -> Some (insert (Option.value l ~default:[]))) index

let index_remove ~key c index =
  M.update key
    (function
      | None -> None
      | Some l -> ( match List.filter (fun x -> x <> c) l with [] -> None | l -> Some l))
    index

let ( let* ) r f = Result.bind r f
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let mem_type t name = M.mem name t.ty
let find_type t name = M.find_opt name t.ty

(* [M.find] rather than [M.find_opt]: every step of a walk up the parent
   links reads a type, and lint walks them thousands of times per call. *)
let get_type t name =
  match M.find name t.ty with
  | e -> e
  | exception Not_found -> invalid_arg (Printf.sprintf "Edm.Schema: unknown entity type %s" name)

let types t = List.map snd (M.bindings t.ty)
let parent t name = (get_type t name).Entity_type.parent

let children t name = match M.find name t.kids with l -> l | exception Not_found -> []

let ancestors t name =
  let rec up acc n =
    match parent t n with None -> List.rev acc | Some p -> up (p :: acc) p
  in
  up [] name

(* The queries below walk the parent links without building [ancestors]:
   lint and the mapping checks ask them thousands of times per SMO. *)
let rec is_subtype t ~sub ~sup =
  String.equal sub sup || match parent t sub with None -> false | Some p -> is_subtype t ~sub:p ~sup

let is_proper_ancestor t ~anc ~descendant =
  (not (String.equal anc descendant))
  && match parent t descendant with None -> false | Some p -> is_subtype t ~sub:p ~sup:anc

let rec root_of t name = match parent t name with None -> name | Some p -> root_of t p

(* Reads the child index, so walking a subtree costs only the subtree; this
   sits under [subtypes] and therefore under every hierarchy-wide analysis. *)
let descendants t name =
  let rec walk n acc = List.fold_right (fun c acc -> c :: walk c acc) (children t n) acc in
  walk name []

let subtypes t name = name :: descendants t name

let strictly_between t ~low ~high =
  let ancs = ancestors t low in
  match high with
  | None -> ancs
  | Some h -> List.filter (fun a -> a <> h && is_proper_ancestor t ~anc:h ~descendant:a) ancs

(* att(E): root's attributes first, then each level down to E. *)
let attributes t name =
  let chain = List.rev (name :: ancestors t name) in
  List.concat_map (fun n -> (get_type t n).Entity_type.declared) chain

let hierarchy_index t name =
  let root = if mem_type t name then root_of t name else name in
  match M.find root t.hattrs with idx -> idx | exception Not_found -> M.empty

let hierarchy_attributes t name =
  M.fold (fun a (d, _) acc -> (a, d) :: acc) (hierarchy_index t name) [] |> List.rev

let rev_hierarchy_attribute_names t name tail =
  M.fold (fun a _ acc -> a :: acc) (hierarchy_index t name) tail

let hierarchy_attribute_names t name = List.rev (rev_hierarchy_attribute_names t name [])

let hierarchy_attribute t name a =
  match M.find a (hierarchy_index t name) with d, _ -> Some d | exception Not_found -> None

let attribute_names t name = List.map fst (attributes t name)
let attribute_domain t name a = List.assoc_opt a (attributes t name)
let key_of t name = (get_type t (root_of t name)).Entity_type.key

let attribute_nullable t name a =
  let rec declared_non_null n =
    let e = get_type t n in
    (List.mem a e.Entity_type.non_null && List.mem_assoc a e.Entity_type.declared)
    || match e.Entity_type.parent with None -> false | Some p -> declared_non_null p
  in
  not (List.mem a (key_of t name) || declared_non_null name)

let entity_sets t = M.bindings t.sets
let set_root t set = M.find_opt set t.sets

let set_of_type t name =
  if not (mem_type t name) then None
  else
    let root = root_of t name in
    M.fold (fun set r acc -> if r = root then Some set else acc) t.sets None

let associations t = List.map snd (M.bindings t.assocs)
let find_association t name = M.find_opt name t.assocs

let associations_on t etype =
  match M.find etype t.ends with
  | names -> List.map (fun a -> M.find a t.assocs) names
  | exception Not_found -> []

let association_columns t (a : Association.t) =
  Association.end1_columns a ~key:(key_of t a.end1)
  @ Association.end2_columns a ~key:(key_of t a.end2)

let association_attributes t (a : Association.t) =
  let ends etype =
    let atts = attributes t etype in
    List.map (fun k -> (Association.qualify ~etype k, List.assoc k atts)) (key_of t etype)
  in
  ends a.end1 @ ends a.end2

(* -- the attribute index ----------------------------------------------------- *)

(* Whether [x] comes before [y] in the preorder of their common hierarchy:
   an ancestor comes before its descendants, and siblings' subtrees in
   ascending name order, as [children] lists them. *)
let precedes t x y =
  let rec down xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | a :: xs, b :: ys -> if String.equal a b then down xs ys else String.compare a b < 0
  in
  down (List.rev (x :: ancestors t x)) (List.rev (y :: ancestors t y))

(* Add attributes [ty] declares to an index of its hierarchy: an attribute
   keeps the domain of its earliest declaring type in preorder. *)
let index_attributes t ty attrs idx =
  List.fold_left
    (fun idx (a, d) ->
      match M.find_opt a idx with
      | Some (_, other) when not (precedes t ty other) -> idx
      | _ -> M.add a (d, ty) idx)
    idx attrs

(* [t] with [attrs], which [ty] has just declared, in its hierarchy's index. *)
let index_new ty attrs t =
  let root = root_of t ty in
  { t with hattrs = M.add root (index_attributes t ty attrs (hierarchy_index t root)) t.hattrs }

(* [t] with the index of [root]'s hierarchy rebuilt by a walk over it. *)
let reindex root t =
  let index idx ty = index_attributes t ty (get_type t ty).Entity_type.declared idx in
  { t with hattrs = M.add root (List.fold_left index M.empty (subtypes t root)) t.hattrs }

(* -- construction -------------------------------------------------------- *)

let check_fresh_type t name =
  if mem_type t name then fail "entity type %s already exists" name else Ok ()

(* Walks the parent links and builds no attribute list: loading a state
   checks every derived type. *)
let check_no_shadowing t ~parent declared =
  let rec inherited n a =
    let e = get_type t n in
    List.mem_assoc a e.Entity_type.declared
    || match e.Entity_type.parent with None -> false | Some p -> inherited p a
  in
  match List.find_opt (fun (a, _) -> inherited parent a) declared with
  | Some (a, _) -> fail "attribute %s shadows an inherited attribute of %s" a parent
  | None -> Ok ()

let add_root ~set (e : Entity_type.t) t =
  let* () = check_fresh_type t e.name in
  let* () = if e.parent <> None then fail "type %s is not a root" e.name else Ok () in
  let* () = if e.key = [] then fail "root type %s has no key" e.name else Ok () in
  let* () =
    match List.find_opt (fun k -> not (List.mem_assoc k e.declared)) e.key with
    | Some k -> fail "key attribute %s of %s is not declared" k e.name
    | None -> Ok ()
  in
  let* () = if M.mem set t.sets then fail "entity set %s already exists" set else Ok () in
  Ok (index_new e.name e.declared { t with ty = M.add e.name e t.ty; sets = M.add set e.name t.sets })

let add_derived (e : Entity_type.t) t =
  let* () = check_fresh_type t e.name in
  let* p = match e.parent with Some p -> Ok p | None -> fail "type %s has no parent" e.name in
  let* () = if not (mem_type t p) then fail "unknown parent type %s" p else Ok () in
  let* () = if e.key <> [] then fail "derived type %s must not declare a key" e.name else Ok () in
  let* () = check_no_shadowing t ~parent:p e.declared in
  Ok (index_new e.name e.declared { t with ty = M.add e.name e t.ty; kids = index_add ~key:p e.name t.kids })

let add_association (a : Association.t) t =
  let* () =
    if M.mem a.name t.assocs then fail "association %s already exists" a.name else Ok ()
  in
  let* () = if not (mem_type t a.end1) then fail "unknown endpoint type %s" a.end1 else Ok () in
  let* () = if not (mem_type t a.end2) then fail "unknown endpoint type %s" a.end2 else Ok () in
  let* () = if a.end1 = a.end2 then fail "self-association %s is not supported" a.name else Ok () in
  let ends = index_add ~key:a.end2 a.name (index_add ~key:a.end1 a.name t.ends) in
  Ok { t with assocs = M.add a.name a t.assocs; ends }

let remove_association name t =
  match M.find_opt name t.assocs with
  | Some a ->
      let ends = index_remove ~key:a.end2 name (index_remove ~key:a.end1 name t.ends) in
      Ok { t with assocs = M.remove name t.assocs; ends }
  | None -> fail "unknown association %s" name

let remove_type name t =
  if not (mem_type t name) then fail "unknown entity type %s" name
  else if children t name <> [] then fail "entity type %s has derived types" name
  else if associations_on t name <> [] then fail "entity type %s is an association endpoint" name
  else
    let root = root_of t name in
    let sets, kids =
      match set_of_type t name, parent t name with
      | Some set, None -> (M.remove set t.sets, t.kids)
      | _, Some p -> (t.sets, index_remove ~key:p name t.kids)
      | None, None -> (t.sets, t.kids)
    in
    let t = { t with ty = M.remove name t.ty; kids; sets } in
    Ok (if root = name then { t with hattrs = M.remove root t.hattrs } else reindex root t)

let add_attribute ~etype (a, dom) t =
  let* e =
    match find_type t etype with Some e -> Ok e | None -> fail "unknown entity type %s" etype
  in
  let clashes n = List.mem a (attribute_names t n) in
  if clashes etype then fail "attribute %s already exists on %s" a etype
  else
    match List.find_opt (fun d -> List.mem a (Entity_type.declared_names (get_type t d))) (descendants t etype) with
    | Some d -> fail "attribute %s would shadow a declaration in descendant %s" a d
    | None ->
        let e = { e with Entity_type.declared = e.Entity_type.declared @ [ (a, dom) ] } in
        Ok (index_new etype [ (a, dom) ] { t with ty = M.add etype e t.ty })

let remove_attribute ~etype a t =
  let* e =
    match find_type t etype with Some e -> Ok e | None -> fail "unknown entity type %s" etype
  in
  if not (List.mem_assoc a e.Entity_type.declared) then
    fail "attribute %s is not declared by %s" a etype
  else if List.mem a (key_of t etype) then fail "cannot remove key attribute %s" a
  else
    let e =
      {
        e with
        Entity_type.declared = List.filter (fun (a', _) -> a' <> a) e.Entity_type.declared;
        non_null = List.filter (fun a' -> a' <> a) e.Entity_type.non_null;
      }
    in
    Ok (reindex (root_of t etype) { t with ty = M.add etype e t.ty })

let widen_attribute ~etype a dom t =
  let* e =
    match find_type t etype with Some e -> Ok e | None -> fail "unknown entity type %s" etype
  in
  match List.assoc_opt a e.Entity_type.declared with
  | None -> fail "attribute %s is not declared by %s" a etype
  | Some old ->
      if not (Datum.Domain.subsumes ~wide:dom ~narrow:old) then
        fail "new domain of %s.%s does not subsume the old one" etype a
      else
        let e =
          {
            e with
            Entity_type.declared =
              List.map (fun (a', d) -> if a' = a then (a', dom) else (a', d)) e.Entity_type.declared;
          }
        in
        Ok (reindex (root_of t etype) { t with ty = M.add etype e t.ty })

let set_multiplicity ~assoc (mult1, mult2) t =
  match M.find_opt assoc t.assocs with
  | None -> fail "unknown association %s" assoc
  | Some a -> Ok { t with assocs = M.add assoc { a with Association.mult1; mult2 } t.assocs }

let reparent ~etype ~parent:p t =
  let* e =
    match find_type t etype with Some e -> Ok e | None -> fail "unknown entity type %s" etype
  in
  let* () = if not (mem_type t p) then fail "unknown parent type %s" p else Ok () in
  let* () = if e.Entity_type.parent <> None then fail "type %s is not a root" etype else Ok () in
  let* () =
    if is_subtype t ~sub:p ~sup:etype then fail "reparenting %s under %s would form a cycle" etype p
    else Ok ()
  in
  (* The old key columns stay as plain attributes; drop them from declared if
     they clash with the new ancestry, which we reject instead of merging. *)
  let inherited = attribute_names t p in
  let* () =
    match
      List.find_map
        (fun d ->
          List.find_map
            (fun (a, _) -> if List.mem a inherited then Some (a, d) else None)
            (get_type t d).Entity_type.declared)
        (subtypes t etype)
    with
    | Some (a, d) -> fail "attribute %s of %s clashes with the new ancestry" a d
    | None -> Ok ()
  in
  let e = { e with Entity_type.parent = Some p; key = [] } in
  let sets = M.filter (fun _ r -> r <> etype) t.sets in
  let t = { t with ty = M.add etype e t.ty; kids = index_add ~key:p etype t.kids; sets } in
  Ok (reindex (root_of t p) { t with hattrs = M.remove etype t.hattrs })

(* One walk down from the roots, each in document order and each type's
   children in document order: a type whose parent is missing, or lies on a
   parent cycle, is never reached.  [Hashtbl.find_all] lists a type's
   children last declared first, so the walk folds them from the right. *)
let of_declarations types ~sets assocs =
  let set_of = Hashtbl.create 16 and kids = Hashtbl.create 64 in
  let* () =
    Datum.Results.all_ok
      (fun (set, root) ->
        match Hashtbl.find_opt set_of root with
        | Some other -> fail "root type %s has two entity sets, %s and %s" root other set
        | None -> Ok (Hashtbl.add set_of root set))
      sets
  in
  List.iter
    (fun (e : Entity_type.t) -> Option.iter (fun p -> Hashtbl.add kids p e) e.parent)
    types;
  let rec place (e : Entity_type.t) t =
    match t with
    | Error _ -> t
    | Ok t ->
        let t =
          match (e.parent, Hashtbl.find_opt set_of e.name) with
          | Some _, _ -> add_derived e t
          | None, Some set -> add_root ~set e t
          | None, None -> fail "root type %s has no entity set" e.name
        in
        List.fold_right place (Hashtbl.find_all kids e.name) t
  in
  let* t =
    List.fold_left
      (fun t (e : Entity_type.t) -> if e.parent = None then place e t else t)
      (Ok empty) types
  in
  let* () =
    if M.cardinal t.ty = List.length types then Ok ()
    else
      let unplaced (e : Entity_type.t) =
        match find_type t e.name with Some placed -> placed != e | None -> true
      in
      fail "entity types with unresolvable parents: %s"
        (String.concat ", "
           (List.filter_map
              (fun (e : Entity_type.t) -> if unplaced e then Some e.name else None)
              types))
  in
  let* () =
    Datum.Results.all_ok
      (fun (set, root) ->
        match find_type t root with
        | Some r when r.Entity_type.parent = None -> Ok ()
        | Some _ -> fail "entity set %s is rooted at non-root %s" set root
        | None -> fail "entity set %s is rooted at unknown type %s" set root)
      sets
  in
  List.fold_left (fun t a -> Result.bind t (add_association a)) (Ok t) assocs

(* -- whole-schema check -------------------------------------------------- *)

let well_formed t =
  let check_type (e : Entity_type.t) =
    let* () =
      match e.parent with
      | None ->
          if e.key = [] then fail "root %s has no key" e.name
          else if List.for_all (fun k -> List.mem_assoc k e.declared) e.key then Ok ()
          else fail "root %s has an undeclared key attribute" e.name
      | Some p ->
          let* () = if mem_type t p then Ok () else fail "%s has unknown parent %s" e.name p in
          let* () = if e.key = [] then Ok () else fail "derived type %s declares a key" e.name in
          (* Cycle detection: walking up must terminate within |types| steps. *)
          let rec walk n seen =
            match parent t n with
            | None -> Ok ()
            | Some p when List.mem p seen -> fail "inheritance cycle through %s" p
            | Some p -> walk p (p :: seen)
          in
          let* () = walk e.name [ e.name ] in
          check_no_shadowing t ~parent:p e.declared
    in
    match set_of_type t e.name with
    | Some _ -> Ok ()
    | None -> fail "entity type %s belongs to no entity set" e.name
  in
  let* () = List.fold_left (fun acc e -> Result.bind acc (fun () -> check_type e)) (Ok ()) (types t) in
  let* () =
    List.fold_left
      (fun acc (set, root) ->
        let* () = acc in
        match find_type t root with
        | Some r when r.Entity_type.parent = None -> Ok ()
        | Some _ -> fail "entity set %s is rooted at non-root %s" set root
        | None -> fail "entity set %s is rooted at unknown type %s" set root)
      (Ok ()) (entity_sets t)
  in
  List.fold_left
    (fun acc (a : Association.t) ->
      let* () = acc in
      if not (mem_type t a.end1) then fail "association %s has unknown endpoint %s" a.name a.end1
      else if not (mem_type t a.end2) then fail "association %s has unknown endpoint %s" a.name a.end2
      else Ok ())
    (Ok ()) (associations t)

(* [kids], [hattrs] and [ends] are derived from [ty] and [assocs], so they
   take no part. *)
let equal a b =
  M.equal Entity_type.equal a.ty b.ty
  && M.equal String.equal a.sets b.sets
  && M.equal Association.equal a.assocs b.assocs

let pp fmt t =
  let pp_type fmt (e : Entity_type.t) =
    let pp_attr fmt (a, d) = Format.fprintf fmt "%s:%a" a Datum.Domain.pp d in
    Format.fprintf fmt "  %s%s(%a)%s" e.name
      (match e.parent with None -> "" | Some p -> " : " ^ p)
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") pp_attr)
      e.declared
      (match e.key with [] -> "" | k -> " key " ^ String.concat "," k)
  in
  Format.fprintf fmt "@[<v>entity types:@,%a@,sets: %a@,associations: %a@]"
    (Format.pp_print_list pp_type) (types t)
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (s, r) -> Format.fprintf fmt "%s<%s>" s r))
    (entity_sets t)
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (a : Association.t) -> Format.fprintf fmt "%s(%s,%s)" a.name a.end1 a.end2))
    (associations t)
