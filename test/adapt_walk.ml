(* Fragment and update-view adaptation (Algorithm 2, Section 3.1.3) as the
   additive SMOs did it before they visited only the neighborhood:
   [adapt_fragments] and [adapt_update_views] walk every fragment and every
   update view.  [check] holds an accepted SMO against them:

   - the fragments and update views an additive entity SMO leaves are the
     full walk's, physically the same wherever the full walk left one alone;
   - every entity type an update view's conditions name is named by the
     client condition of some fragment on its table — the invariant that
     lets the adapters visit only the tables of the fragments they visit;
   - every lookup of [Mapping.Fragments] equals its recomputation from
     [to_list]. *)

open Common
module F = Mapping.Fragment

let adapt_fragments rewrite frags =
  List.map
    (fun (f : F.t) ->
      let cond = rewrite f.client_cond in
      if cond == f.client_cond then f else { f with client_cond = cond })
    frags

let adapt_update_views rewrite uv =
  List.map
    (fun (t, q) -> (t, Query.Algebra.map_conditions rewrite q))
    (Query.View.update_view_bindings uv)

(* The rewrite an additive entity SMO applies, with the types whose atoms
   it can change, given the evolved schema. *)
let adaptation client' = function
  | Core.Smo.Add_entity { entity; p_ref; _ } | Core.Smo.Add_entity_part { entity; p_ref; _ } ->
      let e = entity.Edm.Entity_type.name in
      let between = Edm.Schema.strictly_between client' ~low:e ~high:p_ref in
      Some (Core.Algo.adapt_cond client' ~p_ref ~between ~e, Option.to_list p_ref @ between)
  | Core.Smo.Add_entity_tph { entity; _ } ->
      let parent = Option.get entity.Edm.Entity_type.parent in
      Some (Core.Algo.rule_out client' ~between:[ parent ] ~e:entity.Edm.Entity_type.name, [ parent ])
  | _ -> None

let rec cond_types acc (c : C.t) =
  match c with
  | Is_of ty | Is_of_only ty -> ty :: acc
  | And (a, b) | Or (a, b) -> cond_types (cond_types acc a) b
  | True | False | Is_null _ | Is_not_null _ | Cmp _ -> acc

let rec query_types acc (q : A.t) =
  match q with
  | Scan _ -> acc
  | Select (c, q) -> query_types (cond_types acc c) q
  | Project (_, q) -> query_types acc q
  | Join (_, l, r, _) | Union_all (l, r) -> query_types (query_types acc l) r

let names_one types (f : F.t) = List.exists (fun ty -> List.mem ty types) (cond_types [] f.client_cond)

(* What the indexed adapters must visit: the fragments naming one of
   [types], found by a walk over all of them, and their tables that have an
   update view. *)
let visited (st : Core.State.t) types =
  let frags = List.filter (names_one types) (Mapping.Fragments.to_list st.Core.State.fragments) in
  let tables = List.sort_uniq String.compare (List.map (fun (f : F.t) -> f.table) frags) in
  ( List.length frags,
    List.length (List.filter (fun t -> Query.View.table_view st.Core.State.update_views t <> None) tables) )

(* [after] holds [before]'s fragments adapted as the full walk adapts them,
   then the SMO's new ones; and each update view of a table outside the new
   fragments' is the full walk's. *)
let against_full_walk tag (before : Core.State.t) smo (after : Core.State.t) =
  match adaptation after.Core.State.env.Query.Env.client smo with
  | None -> ()
  | Some (rewrite, _) ->
      let old = Mapping.Fragments.to_list before.Core.State.fragments in
      let walked = adapt_fragments rewrite old in
      let kept, added =
        List.partition
          (fun (i, _) -> i < List.length old)
          (List.mapi (fun i f -> (i, f)) (Mapping.Fragments.to_list after.Core.State.fragments))
      in
      check Alcotest.int (tag ^ ": previous fragments kept") (List.length old) (List.length kept);
      List.iter2
        (fun ((o : F.t), w) (_, a) ->
          if w == o then
            checkb (tag ^ ": fragment the full walk keeps stays physically " ^ F.describe o) true (a == o)
          else checkb (tag ^ ": adapted fragment as the full walk's " ^ F.describe w) true (F.equal a w))
        (List.combine old walked) kept;
      let fresh = List.map (fun (_, (f : F.t)) -> f.table) added in
      List.iter2
        (fun (t, q) (t', w) ->
          assert (String.equal t t');
          if not (List.mem t fresh) then
            match Query.View.table_view after.Core.State.update_views t with
            | None -> Alcotest.failf "%s: update view of %s lost" tag t
            | Some a ->
                if w == q then
                  checkb (tag ^ ": update view the full walk keeps stays physically, " ^ t) true (a == q)
                else checkb (tag ^ ": adapted update view as the full walk's, " ^ t) true (A.equal a w))
        (Query.View.update_view_bindings before.Core.State.update_views)
        (adapt_update_views rewrite before.Core.State.update_views)

let type_invariant tag (st : Core.State.t) =
  let frags = Mapping.Fragments.to_list st.Core.State.fragments in
  List.iter
    (fun (table, q) ->
      let named =
        List.concat_map
          (fun (f : F.t) -> if String.equal f.table table then cond_types [] f.client_cond else [])
          frags
      in
      check
        Alcotest.(list string)
        (tag ^ ": types the update view of " ^ table ^ " names, no fragment on it names")
        []
        (List.filter (fun ty -> not (List.mem ty named)) (List.sort_uniq String.compare (query_types [] q))))
    (Query.View.update_view_bindings st.Core.State.update_views)

(* Every lookup of [frags], at every key its fragments or [env] name and
   one they do not, against a filter over [to_list]. *)
let lookups tag env frags =
  let l = Mapping.Fragments.to_list frags in
  let same what expected got =
    checkb (Printf.sprintf "%s: %s as recomputed" tag what) true (List.equal ( == ) expected got)
  in
  check Alcotest.int (tag ^ ": size") (List.length l) (Mapping.Fragments.size frags);
  let tables = List.sort_uniq String.compare (List.map (fun (f : F.t) -> f.table) l) in
  check Alcotest.(list string) (tag ^ ": tables") tables (Mapping.Fragments.tables frags);
  let store_tables = List.map (fun t -> t.Relational.Table.name) (Relational.Schema.tables env.Query.Env.store) in
  let cols = List.sort_uniq String.compare (List.concat_map F.cols l) in
  List.iter
    (fun t ->
      let on = List.filter (fun (f : F.t) -> String.equal f.table t) l in
      same ("on_table " ^ t) on (Mapping.Fragments.on_table frags t);
      check
        Alcotest.(list string)
        (Printf.sprintf "%s: columns used in %s" tag t)
        (List.filter (fun c -> List.exists (fun f -> F.mem_col f c) on) cols)
        (List.filter (Mapping.Fragments.column_used frags ~table:t) cols))
    (List.sort_uniq String.compare (("no-such-table" :: tables) @ store_tables));
  let sources = List.map (fun (f : F.t) -> f.client_source) l in
  let client = env.Query.Env.client in
  let names =
    List.sort_uniq String.compare
      ("no-such-source"
       :: List.map (function F.Set s | F.Assoc s -> s) sources
       @ List.map fst (Edm.Schema.entity_sets client)
       @ List.map (fun (a : Edm.Association.t) -> a.name) (Edm.Schema.associations client))
  in
  List.iter
    (fun s ->
      same ("of_set " ^ s)
        (List.filter (fun (f : F.t) -> F.equal_client_source f.client_source (F.Set s)) l)
        (Mapping.Fragments.of_set frags s);
      same ("of_assoc " ^ s)
        (List.filter (fun (f : F.t) -> F.equal_client_source f.client_source (F.Assoc s)) l)
        (Mapping.Fragments.of_assoc frags s))
    names;
  let types =
    List.sort_uniq String.compare
      (("no-such-type" :: List.concat_map (fun (f : F.t) -> cond_types [] f.client_cond) l)
      @ List.map (fun (e : Edm.Entity_type.t) -> e.name) (Edm.Schema.types client))
  in
  List.iteri
    (fun i ty ->
      same ("naming " ^ ty) (List.filter (names_one [ ty ]) l) (Mapping.Fragments.naming frags [ ty ]);
      match List.nth_opt types (i + 1) with
      | Some ty' ->
          same
            ("naming " ^ ty ^ ", " ^ ty')
            (List.filter (names_one [ ty; ty' ]) l)
            (Mapping.Fragments.naming frags [ ty; ty' ])
      | None -> ())
    types

let indexes tag (st : Core.State.t) = lookups tag st.Core.State.env st.Core.State.fragments

(* Everything above after an accepted [smo] took [before] to [after]. *)
let check tag before smo after =
  against_full_walk tag before smo after;
  type_invariant tag after;
  indexes tag after
