(* The hierarchy queries of [Edm.Schema] recomputed from scratch: the
   walk [descendants] made before the schema kept a child index (one pass
   over [types] builds a parent -> children table), the list-building
   versions of the accessors that now walk parent links, and the
   hierarchy-attribute walk the schema's per-root index replaced, and the
   scan columns [Query.Env] built from that walk, and the association
   filter the endpoint index replaced.  [check] compares the schema's
   accessors with them at every type, every pair of types, every attribute
   of each hierarchy and every entity set. *)

let by_parent schema =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Edm.Entity_type.t) ->
      match e.parent with Some p -> Hashtbl.add tbl p e.name | None -> ())
    (Edm.Schema.types schema);
  tbl

(* [types] is in ascending name order and [find_all] returns the newest
   first, so reversing gives sorted children. *)
let children tbl name = List.rev (Hashtbl.find_all tbl name)

let descendants tbl name =
  let rec walk n = List.concat_map (fun c -> c :: walk c) (children tbl n) in
  walk name

let check tag schema =
  let tbl = by_parent schema in
  let slist = Alcotest.(list string) in
  List.iter
    (fun (e : Edm.Entity_type.t) ->
      let n = e.name in
      Alcotest.check slist (tag ^ ": children of " ^ n) (children tbl n) (Edm.Schema.children schema n);
      Alcotest.check slist (tag ^ ": subtypes of " ^ n) (n :: descendants tbl n)
        (Edm.Schema.subtypes schema n))
    (Edm.Schema.types schema)

(* Proper ancestors, nearest first, and the accessors built on them. *)
let ancestors schema name =
  let rec up acc n = match Edm.Schema.parent schema n with None -> List.rev acc | Some p -> up (p :: acc) p in
  up [] name

let is_subtype schema ~sub ~sup = sub = sup || List.mem sup (ancestors schema sub)

let is_proper_ancestor schema ~anc ~descendant =
  anc <> descendant && List.mem anc (ancestors schema descendant)

let root_of schema name = match ancestors schema name with [] -> name | l -> List.nth l (List.length l - 1)
let find schema n = Option.get (Edm.Schema.find_type schema n)
let key_of schema name = (find schema (root_of schema name)).key

let attribute_nullable schema name a =
  (not (List.mem a (key_of schema name)))
  && not
       (List.exists
          (fun n ->
            let e = find schema n in
            List.mem a e.non_null && List.mem_assoc a e.declared)
          (name :: ancestors schema name))

(* Every attribute of the hierarchy under [root], once, with the domain of
   its first declaring type in preorder. *)
let hierarchy_attributes tbl schema root =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun ty ->
      List.filter
        (fun (a, _) -> (not (Hashtbl.mem seen a)) && (Hashtbl.replace seen a (); true))
        (find schema ty).declared)
    (root :: descendants tbl root)

let check_walks tag schema =
  let tbl = by_parent schema in
  let names = List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types schema) in
  let bool what expected got = Alcotest.(check bool) (tag ^ ": " ^ what) expected got in
  List.iter
    (fun n ->
      Alcotest.(check string) (tag ^ ": root of " ^ n) (root_of schema n) (Edm.Schema.root_of schema n);
      Alcotest.(check (list string)) (tag ^ ": key of " ^ n) (key_of schema n) (Edm.Schema.key_of schema n);
      List.iter
        (fun m ->
          bool (Printf.sprintf "%s subtype of %s" n m) (is_subtype schema ~sub:n ~sup:m)
            (Edm.Schema.is_subtype schema ~sub:n ~sup:m);
          bool (Printf.sprintf "%s proper ancestor of %s" n m) (is_proper_ancestor schema ~anc:n ~descendant:m)
            (Edm.Schema.is_proper_ancestor schema ~anc:n ~descendant:m))
        names;
      let root = root_of schema n in
      let walk = hierarchy_attributes tbl schema root in
      let by_name = List.sort (fun (a, _) (b, _) -> String.compare a b) in
      bool ("hierarchy attributes of " ^ n) true (by_name walk = Edm.Schema.hierarchy_attributes schema n);
      List.iter
        (fun a ->
          bool (Printf.sprintf "%s.%s nullable" n a) (attribute_nullable schema n a)
            (Edm.Schema.attribute_nullable schema n a);
          bool (Printf.sprintf "domain of %s in %s's hierarchy" a n) true
            (List.assoc_opt a walk = Edm.Schema.hierarchy_attribute schema n a))
        ("?unknown" :: List.map fst walk))
    names

(* An entity set's scan columns as [Query.Env] built them before it read
   the index: the dynamic-type column, then every name some type of the
   hierarchy declares, sorted, once each. *)
let check_set_columns tag schema =
  let tbl = by_parent schema in
  let env = Query.Env.make ~client:schema ~store:Relational.Schema.empty in
  List.iter
    (fun (set, root) ->
      let names =
        List.concat_map
          (fun ty -> Edm.Entity_type.declared_names (find schema ty))
          (root :: descendants tbl root)
      in
      Alcotest.(check (list string))
        (tag ^ ": columns of " ^ set)
        (Query.Env.type_column :: List.sort_uniq String.compare names)
        (Query.Env.entity_set_columns env set))
    (Edm.Schema.entity_sets schema)

(* [associations_on] as it was before the schema kept an endpoint index: a
   filter over every association. *)
let associations_on schema etype =
  List.filter
    (fun (a : Edm.Association.t) -> a.end1 = etype || a.end2 = etype)
    (Edm.Schema.associations schema)

let check_endpoints tag schema =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (tag ^ ": associations on " ^ n)
        true
        (List.equal Edm.Association.equal (associations_on schema n) (Edm.Schema.associations_on schema n)))
    ("?unknown" :: List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types schema))

let check tag schema =
  check tag schema;
  check_walks tag schema;
  check_set_columns tag schema;
  check_endpoints tag schema
