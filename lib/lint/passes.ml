module Cond = Query.Cond
module Simplify = Query.Simplify
module Fragment = Mapping.Fragment
module Fragments = Mapping.Fragments
module Coverage = Mapping.Coverage
module S = Set.Make (String)

(* Every pass below reads the schemas and the fragments in place, the
   fragments through the container's indexes: a lookup allocates at most
   its answer, and a list is built only to name a finding.  What several
   lookups share is built once per [run] call: the hierarchy snapshots and
   each set's mapped attributes. *)

(* -- Hierarchy snapshot --------------------------------------------------- *)

(* What the passes read about one type: [types] holds the type and its
   ancestors (the types an [IS OF] test accepts it for), [attrs] its
   attributes, and [non_null] those a type of its chain declares NOT NULL. *)
type type_info = { name : string; types : S.t; attrs : S.t; non_null : S.t }

(* One hierarchy: its key and its types in [Edm.Schema.subtypes] order. *)
type hier = { key : string list; info : type_info list }

type hiers = (string, hier) Hashtbl.t

(* One walk down the child index: each type's sets are its parent's with
   what the type declares added, so a snapshot costs the declarations, not a
   copy of every type's attribute list.  [run] shares the snapshots across
   the fragments and model passes of one call, so the table never outlives
   the schema it was built from. *)
let snapshot client root =
  let rec walk (up : type_info) ty info =
    match Edm.Schema.find_type client ty with
    | None -> info
    | Some e ->
        let declared = e.Edm.Entity_type.declared in
        let ti =
          { name = ty;
            types = S.add ty up.types;
            attrs = List.fold_left (fun s (a, _) -> S.add a s) up.attrs declared;
            non_null =
              List.fold_left
                (fun s a -> if List.mem_assoc a declared then S.add a s else s)
                up.non_null e.Edm.Entity_type.non_null }
        in
        List.fold_left (fun info c -> walk ti c info) (ti :: info) (Edm.Schema.children client ty)
  in
  let top = { name = ""; types = S.empty; attrs = S.empty; non_null = S.empty } in
  { key = Edm.Schema.key_of client root; info = List.rev (walk top root []) }

let hier_of (hiers : hiers) client root =
  match Hashtbl.find hiers root with
  | h -> h
  | exception Not_found ->
      let h = snapshot client root in
      Hashtbl.add hiers root h;
      h

(* -- Shared condition reasoning ------------------------------------------- *)

(* Three-valued syntactic evaluation of a condition against one exact type:
   type atoms are decided exactly, attribute atoms over attributes the type
   lacks evaluate as over NULL (matching Cond.eval), everything else is
   unknown. *)
type tri = T | F | U

let rec approx ti c =
  match c with
  | Cond.True -> T
  | Cond.False -> F
  | Cond.Is_of e -> if S.mem e ti.types then T else F
  | Cond.Is_of_only e -> if String.equal ti.name e then T else F
  | Cond.Is_null a -> if S.mem a ti.attrs then U else T
  | Cond.Is_not_null a -> if S.mem a ti.attrs then U else F
  | Cond.Cmp (a, _, v) -> if Datum.Value.is_null v || not (S.mem a ti.attrs) then F else U
  | Cond.And (a, b) -> (
      match (approx ti a, approx ti b) with
      | F, _ | _, F -> F
      | T, T -> T
      | _ -> U)
  | Cond.Or (a, b) -> (
      match (approx ti a, approx ti b) with
      | T, _ | _, T -> T
      | F, F -> F
      | _ -> U)

(* Whether [c] may hold for some type of the hierarchy. *)
let rec selects info c =
  match info with [] -> false | ti :: rest -> approx ti c <> F || selects rest c

(* Whether [c] may hold for a type on which the non-key attribute [a] may be
   NULL: one that lacks [a] (it reads as NULL, matching [Cond.eval]) or has
   it without a NOT NULL declaration. *)
let rec selects_nullable info c a =
  match info with
  | [] -> false
  | ti :: rest ->
      (approx ti c <> F && ((not (S.mem a ti.attrs)) || not (S.mem a ti.non_null)))
      || selects_nullable rest c a

(* DNF with a size cap: past the cap we give up rather than blow the
   syntactic-analysis cost budget. *)
let dnf_capped c =
  let d = Cond.dnf c in
  if List.length d > 32 || List.exists (fun conj -> List.length conj > 24) d then None
  else Some d

let conj_unsat hier conj =
  Simplify.unsat (Cond.conj conj)
  || match hier with Some h -> not (selects h.info (Cond.conj conj)) | None -> false

let disjoint_gen hier c1 c2 =
  match (dnf_capped c1, dnf_capped c2) with
  | Some d1, Some d2 ->
      List.for_all
        (fun conj1 -> List.for_all (fun conj2 -> conj_unsat hier (conj1 @ conj2)) d2)
        d1
  | _ -> false

let disjoint_hier hier c1 c2 = disjoint_gen (Some hier) c1 c2
let disjoint_store c1 c2 = disjoint_gen None c1 c2

(* -- Per-fragment passes: L003 L004 L005 L007 L012 ------------------------ *)

let floc f = Diag.Fragment (Fragment.describe f)

(* Whether a conjunct of [c] forces [a] non-NULL. *)
let rec forces_not_null a = function
  | Cond.And (x, y) -> forces_not_null a x || forces_not_null a y
  | Cond.Is_not_null b | Cond.Cmp (b, _, _) -> String.equal a b
  | _ -> false

let entity_fragment_diags hiers env (f : Fragment.t) set tbl add =
  let client = env.Query.Env.client in
  match Edm.Schema.set_root client set with
  | None -> ()
  | Some root ->
      let hier = hier_of hiers client root in
      let key = hier.key in
      List.iter
        (fun (a, c) ->
          (match
             (Edm.Schema.hierarchy_attribute client root a, Relational.Table.domain_of tbl c)
           with
          | Some ad, Some cd when not (Datum.Domain.subsumes ~wide:cd ~narrow:ad) ->
              add
                (Diag.makef ~code:"L004" ~severity:Diag.Error ~loc:(floc f)
                   "column %s.%s (%s) cannot hold every value of attribute %s (%s)" f.table c
                   (Datum.Domain.show cd) a (Datum.Domain.show ad))
          | _ -> ());
          if
            Relational.Table.mem_column tbl c
            && (not (Relational.Table.nullable tbl c))
            && (not (List.mem a key))
            && (not (forces_not_null a f.client_cond))
            && selects_nullable hier.info f.client_cond a
          then
            add
              (Diag.makef ~code:"L003" ~severity:Diag.Warning ~loc:(floc f)
                 "attribute %s may be NULL but column %s.%s is NOT NULL" a f.table c))
        f.pairs;
      List.iter
        (fun k ->
          match Fragment.attr_of f k with
          | Some a when List.mem a key -> ()
          | Some a ->
              add
                (Diag.makef ~code:"L005" ~severity:Diag.Warning ~loc:(floc f)
                   "primary-key column %s.%s is paired with non-key attribute %s" f.table k a)
          | None ->
              if not (Coverage.writes f k) then
                add
                  (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
                     "primary-key column %s.%s is neither mapped nor fixed by the store condition"
                     f.table k))
        tbl.Relational.Table.key;
      if Simplify.unsat f.client_cond then
        add
          (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
             "client condition is unsatisfiable: contradictory conjuncts")
      else if not (selects hier.info f.client_cond) then
        add
          (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
             "client condition selects no type of the hierarchy rooted at %s" root)

let assoc_fragment_diags (f : Fragment.t) tbl add =
  List.iter
    (fun k ->
      if not (Coverage.writes f k) then
        add
          (Diag.makef ~code:"L005" ~severity:Diag.Error ~loc:(floc f)
             "primary-key column %s.%s is neither mapped nor fixed by the store condition" f.table
             k))
    tbl.Relational.Table.key

let fragment_diags hiers env (f : Fragment.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (match Relational.Schema.find_table env.Query.Env.store f.table with
  | None -> ()
  | Some tbl -> (
      match f.client_source with
      | Fragment.Set s -> entity_fragment_diags hiers env f s tbl add
      | Fragment.Assoc _ -> assoc_fragment_diags f tbl add));
  if Simplify.unsat f.store_cond then
    add
      (Diag.makef ~code:"L007" ~severity:Diag.Warning ~loc:(floc f)
         "store condition is unsatisfiable: contradictory conjuncts");
  (* Catch-all: anything the targeted passes miss but basic well-formedness
     rejects (broken references, misaligned projections, ...). *)
  let specific = !diags in
  (match Fragment.well_formed env f with
  | Ok () -> ()
  | Error msg ->
      if not (List.exists (fun d -> d.Diag.severity = Diag.Error) specific) then
        add (Diag.makef ~code:"L012" ~severity:Diag.Error ~loc:(floc f) "%s" msg));
  !diags

(* -- Whole-model passes: L001 L002 L006 L009 L010 ------------------------- *)

(* Each set's mapped attributes are gathered once, into one table that every
   set reuses. *)
let unmapped_attr_diags env frags add =
  let client = env.Query.Env.client in
  let mapped = Hashtbl.create 64 in
  let map a = Hashtbl.replace mapped a () in
  List.iter
    (fun (s, root) ->
      Hashtbl.clear mapped;
      List.iter
        (fun (f : Fragment.t) ->
          List.iter (fun (a, _) -> map a) f.pairs;
          List.iter (fun (a, _) -> map a) (Query.Cond.determined_constants f.client_cond))
        (Fragments.of_set frags s);
      List.iter
        (fun (a, _) ->
          if not (Hashtbl.mem mapped a) then
            add
              (Diag.makef ~code:"L001" ~severity:Diag.Error ~loc:(Diag.Entity_set s)
                 "attribute %s of the hierarchy rooted at %s is mapped by no fragment" a root))
        (Edm.Schema.hierarchy_attributes client root))
    (Edm.Schema.entity_sets client)

(* [on] is [Fragments.on_table frags tname], as in [overlap_diags]. *)
let unwritten_column_diags env tname on add =
  match Relational.Schema.find_table env.Query.Env.store tname with
  | None -> ()
  | Some tbl ->
      List.iter
        (fun c ->
          add
            (Diag.makef ~code:"L002" ~severity:Diag.Error ~loc:(Diag.Table tname)
               "non-nullable column %s is written by no fragment" c))
        (Coverage.unwritten_not_null on tbl)

(* The attribute of the first pair of [pairs] with column [c], which has
   one. *)
let rec attr_at c = function
  | [] -> raise Not_found
  | (a, c') :: rest -> if String.equal c c' then a else attr_at c rest

let overlap_diags hiers env tname on add =
  let client = env.Query.Env.client in
  let overlap tname key (f : Fragment.t) (g : Fragment.t) =
    match (f.client_source, g.client_source) with
    | Fragment.Set sf, Fragment.Set sg when String.equal sf sg -> (
        match Edm.Schema.set_root client sf with
        | None -> ()
        | Some root ->
            let conflicting =
              List.filter_map
                (fun (_, c) ->
                  if
                    Fragment.mem_col g c
                    && (not (List.mem c key))
                    && not (String.equal (attr_at c f.pairs) (attr_at c g.pairs))
                  then Some c
                  else None)
                f.pairs
            in
            if
              conflicting <> []
              && (not (disjoint_hier (hier_of hiers client root) f.client_cond g.client_cond))
              && not (disjoint_store f.store_cond g.store_cond)
            then
              add
                (Diag.makef ~code:"L006" ~severity:Diag.Warning ~loc:(Diag.Table tname)
                   "overlapping fragments %s and %s write different attributes into column(s) %s"
                   (Fragment.describe f) (Fragment.describe g)
                   (String.concat ", " conflicting)))
    | _ -> ()
  in
  let key =
    match Relational.Schema.find_table env.Query.Env.store tname with
    | Some t -> t.Relational.Table.key
    | None -> []
  in
  let rec pairs = function
    | [] -> ()
    | f :: rest ->
        List.iter (overlap tname key f) rest;
        pairs rest
  in
  pairs
    (List.filter
       (fun (f : Fragment.t) ->
         match f.client_source with Fragment.Set _ -> true | Fragment.Assoc _ -> false)
       on)

let assoc_fk_diags env frags add =
  let store = env.Query.Env.store in
  List.iter
    (fun (assoc : Edm.Association.t) ->
      match Fragments.of_assoc frags assoc.name with
      | [] ->
          add
            (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
               "association set is mapped by no fragment")
      | afrags ->
          List.iter
            (fun (f : Fragment.t) ->
              match Relational.Schema.find_table store f.table with
              | None -> ()
              | Some tbl ->
                  let in_key c = List.mem c tbl.key in
                  let fk_backed c =
                    List.exists
                      (fun (fk : Relational.Table.foreign_key) -> List.mem c fk.fk_columns)
                      tbl.fks
                  in
                  let unsupported =
                    List.filter_map
                      (fun (_, c) -> if (not (in_key c)) && not (fk_backed c) then Some c else None)
                      f.pairs
                  in
                  if unsupported <> [] then
                    add
                      (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
                         "association column(s) %s of table %s are backed by no foreign key"
                         (String.concat ", " unsupported) f.table)
                  else if tbl.fks = [] && List.for_all (fun (_, c) -> in_key c) f.pairs then
                    add
                      (Diag.makef ~code:"L009" ~severity:Diag.Warning ~loc:(Diag.Assoc assoc.name)
                         "join table %s of the association has no foreign keys" f.table))
            afrags)
    (Edm.Schema.associations env.Query.Env.client)

(* [mapped] is [Fragments.tables frags]. *)
let unreferenced_table_diags env mapped add =
  List.iter
    (fun (tbl : Relational.Table.t) ->
      if not (List.mem tbl.name mapped) then
        add
          (Diag.makef ~code:"L010" ~severity:Diag.Info ~loc:(Diag.Table tbl.name)
             "table is not mapped by any fragment"))
    (Relational.Schema.tables env.Query.Env.store)

let model_diags hiers env frags =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  unmapped_attr_diags env frags add;
  let mapped = Fragments.tables frags in
  List.iter
    (fun tname ->
      let on = Fragments.on_table frags tname in
      unwritten_column_diags env tname on add;
      overlap_diags hiers env tname on add)
    mapped;
  assoc_fk_diags env frags add;
  unreferenced_table_diags env mapped add;
  !diags

(* -- The mapping analysis ------------------------------------------------- *)

let run env frags =
  let hiers : hiers = Hashtbl.create 16 in
  let frag_ds =
    Obs.Span.with_ ~name:"lint.fragments" (fun () ->
        List.concat_map (fragment_diags hiers env) (Fragments.to_list frags))
  in
  let model_ds = Obs.Span.with_ ~name:"lint.model" (fun () -> model_diags hiers env frags) in
  Diag.sort (List.rev_append frag_ds model_ds)
