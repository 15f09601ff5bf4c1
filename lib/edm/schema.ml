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

(* [t] with [attrs], which [ty] has just declared, in its hierarchy's index:
   an attribute keeps the domain of its earliest declaring type in preorder. *)
let index_new ty attrs t =
  let root = root_of t ty in
  let add idx (a, d) =
    match M.find_opt a idx with
    | Some (_, other) when not (precedes t ty other) -> idx
    | _ -> M.add a (d, ty) idx
  in
  { t with hattrs = M.add root (List.fold_left add (hierarchy_index t root) attrs) t.hattrs }

(* The attribute index of [root]'s hierarchy, by one walk over its
   subtypes in preorder: an attribute keeps the domain of its first
   declaring type in the walk, which is its earliest in preorder. *)
let hierarchy_of t root =
  let rec walk idx ty =
    let idx =
      List.fold_left
        (fun idx (a, d) -> if M.mem a idx then idx else M.add a (d, ty) idx)
        idx (get_type t ty).Entity_type.declared
    in
    List.fold_left walk idx (children t ty)
  in
  walk M.empty root

(* [t] with the index of [root]'s hierarchy rebuilt. *)
let reindex root t = { t with hattrs = M.add root (hierarchy_of t root) t.hattrs }

(* -- construction -------------------------------------------------------- *)

(* The checks of a new type read the type map [ty] (and a root's the set
   map [sets]) and are written without [let*]: a model's load checks every
   type, and would otherwise build a closure per step. *)

(* Whether [n] or an ancestor declares [a]: walks the parent links and
   builds no attribute list. *)
let rec inherited ty n a =
  let e = M.find n ty in
  List.mem_assoc a e.Entity_type.declared
  || match e.Entity_type.parent with None -> false | Some p -> inherited ty p a

let rec check_no_shadowing ty ~parent = function
  | [] -> Ok ()
  | (a, _) :: rest ->
      if inherited ty parent a then fail "attribute %s shadows an inherited attribute of %s" a parent
      else check_no_shadowing ty ~parent rest

(* A new type: its name is free, each attribute is declared once, and its
   non-null and key attributes are declared.  No allocation unless it
   fails. *)
let rec declared_twice = function
  | [] -> None
  | (a, _) :: rest -> if List.mem_assoc a rest then Some a else declared_twice rest

let rec undeclared declared = function
  | [] -> None
  | a :: rest -> if List.mem_assoc a declared then undeclared declared rest else Some a

let check_new ty (e : Entity_type.t) =
  if M.mem e.name ty then fail "entity type %s already exists" e.name
  else
    match (declared_twice e.declared, undeclared e.declared e.non_null, undeclared e.declared e.key) with
    | Some a, _, _ -> fail "type %s declares attribute %s twice" e.name a
    | None, Some a, _ -> fail "type %s marks undeclared attribute %s non-null" e.name a
    | None, None, Some k -> fail "key attribute %s of %s is not declared" k e.name
    | None, None, None -> Ok ()

let check_root ty sets ~set (e : Entity_type.t) =
  match check_new ty e with
  | Error _ as r -> r
  | Ok () ->
      if e.parent <> None then fail "type %s is not a root" e.name
      else if e.key = [] then fail "root type %s has no key" e.name
      else if M.mem set sets then fail "entity set %s already exists" set
      else Ok ()

let check_derived ty (e : Entity_type.t) =
  match (check_new ty e, e.parent) with
  | (Error _ as r), _ -> r
  | Ok (), None -> fail "type %s has no parent" e.name
  | Ok (), Some p ->
      if not (M.mem p ty) then fail "unknown parent type %s" p
      else if e.key <> [] then fail "derived type %s must not declare a key" e.name
      else check_no_shadowing ty ~parent:p e.declared

let add_root ~set (e : Entity_type.t) t =
  let* () = check_root t.ty t.sets ~set e in
  Ok (index_new e.name e.declared { t with ty = M.add e.name e t.ty; sets = M.add set e.name t.sets })

let add_derived (e : Entity_type.t) t =
  let* () = check_derived t.ty e in
  let p = Option.get e.parent in
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

type declaration = Type of int | Set of int | Association of int

let refuse d fmt = Format.kasprintf (fun s -> Error (d, s)) fmt

(* The child index of [ty], each list ascending: children collected in
   ascending name order, then each list reversed once. *)
let kids_of ty =
  let kids = Hashtbl.create 64 in
  M.iter
    (fun name (e : Entity_type.t) ->
      match e.parent with
      | Some p -> Hashtbl.replace kids p (name :: Option.value (Hashtbl.find_opt kids p) ~default:[])
      | None -> ())
    ty;
  Hashtbl.fold (fun p names index -> M.add p (List.rev names) index) kids M.empty

exception Refused of declaration * string

(* One walk down from the roots, each in document order and each type's
   children in document order: a type whose parent is missing, or lies on a
   parent cycle, is never reached.  The walk goes by each type's place in
   [types] ([decl] holds them by place), which names the type it refuses:
   the walk's order is not the document's, so of two namesakes the one
   refused may be the earlier.
   [Hashtbl.find_all] lists a type's children last declared first, so the
   walk places them from the end of that list.  The walk applies the checks
   of [add_root] and [add_derived] and fills the type and set maps; [kids]
   and every root's [hattrs] are built once, after every type is placed,
   instead of once per type. *)
let of_declarations types ~sets assocs =
  let set_of = Hashtbl.create 16 and kids = Hashtbl.create 64 in
  let* () =
    Datum.Results.all_oki
      (fun i (set, root) ->
        match Hashtbl.find_opt set_of root with
        | Some other -> refuse (Set i) "root type %s has two entity sets, %s and %s" root other set
        | None -> Ok (Hashtbl.add set_of root set))
      sets
  in
  let decl = Array.of_list types in
  Array.iteri
    (fun i (e : Entity_type.t) -> match e.parent with Some p -> Hashtbl.add kids p i | None -> ())
    decl;
  let ty = ref M.empty and roots = ref M.empty in
  let rec place i (e : Entity_type.t) =
    let checked =
      match (e.parent, Hashtbl.find_opt set_of e.name) with
      | Some _, _ -> check_derived !ty e
      | None, Some set ->
          let r = check_root !ty !roots ~set e in
          if Result.is_ok r then roots := M.add set e.name !roots;
          r
      | None, None -> fail "root type %s has no entity set" e.name
    in
    (match checked with Ok () -> () | Error m -> raise (Refused (Type i, m)));
    ty := M.add e.name e !ty;
    place_from_end (Hashtbl.find_all kids e.name)
  and place_from_end = function
    | [] -> ()
    | i :: rest ->
        place_from_end rest;
        place i decl.(i)
  in
  let* t =
    match Array.iteri (fun i (e : Entity_type.t) -> if e.parent = None then place i e) decl with
    | () -> Ok { empty with ty = !ty; sets = !roots }
    | exception Refused (d, m) -> Error (d, m)
  in
  let* () =
    if M.cardinal t.ty = List.length types then Ok ()
    else
      let unplaced (e : Entity_type.t) =
        match find_type t e.name with Some placed -> placed != e | None -> true
      in
      let names = List.filter_map (fun (e : Entity_type.t) -> if unplaced e then Some e.name else None) types in
      refuse (Type (Option.get (List.find_index unplaced types)))
        "entity types with unresolvable parents: %s" (String.concat ", " names)
  in
  let* () =
    Datum.Results.all_oki
      (fun i (set, root) ->
        match find_type t root with
        | Some r when r.Entity_type.parent = None -> Ok ()
        | Some _ -> refuse (Set i) "entity set %s is rooted at non-root %s" set root
        | None -> refuse (Set i) "entity set %s is rooted at unknown type %s" set root)
      sets
  in
  let t = { t with kids = kids_of t.ty } in
  let t = { t with hattrs = M.fold (fun _ root hattrs -> M.add root (hierarchy_of t root) hattrs) t.sets M.empty } in
  let rec associate i t = function
    | [] -> Ok t
    | a :: rest -> (
        match add_association a t with Ok t -> associate (i + 1) t rest | Error m -> Error (Association i, m))
  in
  associate 0 t assocs

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
