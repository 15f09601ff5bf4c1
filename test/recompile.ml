(* The shrinking SMOs (DropEntity, DropProperty, DropAssociation,
   Refactor) as each of them did it before:

   - the fragments of DropEntity, DropProperty and Refactor as each rebuilt
     the whole container from [to_list] before it edited the container in
     place ([rebuilt]);
   - the view regeneration: the set's query views as the full compiler
     regenerates them ([recompile_set], the former [Algo.recompile_set]),
     and each update view by the rebuild rule ([check_update_views]): a
     table whose fragments the SMO left alone keeps its view physically,
     and a table whose fragments it changed has the view
     [Fullc.Update_views.for_table] regenerates, or none when it has no
     fragment left;

   - the proofs each emitted when the shared tail re-proved every foreign
     key of the tables it regenerated ([unsliced_fk_obligations]), and
     DropProperty's coverage step on every removal.

   [check] holds an accepted shrinking SMO against all three: its fragments
   are the rebuild's, in order, physically the same wherever the rebuild
   left one alone, with every lookup as recomputed
   ({!Adapt_walk.lookups}); its query views are the reference's, binding
   by binding, and its update views those of the rebuild rule; the states
   before and after it roundtrip sampled client states; and what it no
   longer proves still holds.  The surgery tests use [recompile_set] as
   the reference for AddEntityPart. *)

let ( let* ) = Result.bind
let lift r = Containment.Validation_error.lift r

module F = Mapping.Fragment

(* -- the fragments ------------------------------------------------------------ *)

let erase_type ~e cond =
  Query.Cond.simplify
    (Query.Cond.map_atoms
       (function
         | Query.Cond.Is_of t when t = e -> Query.Cond.False
         | Query.Cond.Is_of_only t when t = e -> Query.Cond.False
         | atom -> atom)
       cond)

(* The fragments [smo] had to leave, given the evolved schema of [after]:
   the body of the SMO's former [to_list |> filter_map |> of_list] rebuild,
   each fragment it keeps paired with the fragment of [before] it came
   from; [None] for an SMO that edited the container in place before. *)
let rebuilt (before : Core.State.t) smo (after : Core.State.t) =
  let client = before.Core.State.env.Query.Env.client in
  let all = Mapping.Fragments.to_list before.Core.State.fragments in
  let rebuild step = Some (List.filter_map (fun f -> Option.map (fun g -> (f, g)) (step f)) all) in
  match smo with
  | Core.Smo.Drop_entity { etype } ->
      rebuild (fun (f : F.t) ->
          let cond = erase_type ~e:etype f.client_cond in
          if Query.Cond.equal cond Query.Cond.False then None else Some { f with client_cond = cond })
  | Core.Smo.Drop_property { etype; attr } ->
      let set = Option.get (Edm.Schema.set_of_type client etype) in
      let key = Edm.Schema.key_of client etype in
      let implied (f : F.t) pairs =
        List.exists
          (fun (g : F.t) ->
            g != f && F.equal { g with pairs = f.pairs } f && List.for_all (fun p -> List.mem p g.pairs) pairs)
          all
      in
      rebuild (fun (f : F.t) ->
          if not (F.equal_client_source f.client_source (F.Set set)) then Some f
          else if not (List.mem attr (F.attrs f)) then Some f
          else
            let pairs = List.remove_assoc attr f.pairs in
            if List.for_all (fun (a, _) -> List.mem a key) pairs && implied f pairs then None
            else Some { f with pairs })
  | Core.Smo.Refactor { assoc } ->
      let a = Option.get (Edm.Schema.find_association client assoc) in
      let e1 = a.Edm.Association.end1 and e2 = a.Edm.Association.end2 in
      let set1 = Option.get (Edm.Schema.set_of_type after.Core.State.env.Query.Env.client e1) in
      let set2 = Option.get (Edm.Schema.set_of_type client e2) in
      let assoc_frag = List.hd (Mapping.Fragments.of_assoc before.Core.State.fragments assoc) in
      let key1 = Edm.Schema.key_of client e1 in
      let f_pk1 =
        List.filter_map (F.col_of assoc_frag) (List.map (Edm.Association.qualify ~etype:e1) key1)
      in
      let key_pairs = List.combine key1 f_pk1 in
      rebuild (fun (f : F.t) ->
          if F.equal f assoc_frag then None
          else if F.equal_client_source f.client_source (F.Set set2) then
            Some
              { f with
                client_source = F.Set set1;
                client_cond = Query.Cond.simplify (Query.Cond.And (Query.Cond.Is_of e2, f.client_cond));
                pairs = key_pairs @ f.pairs }
          else Some { f with client_cond = Core.Algo.widen_only_p ~p:e1 ~e:e2 f.client_cond })
  | _ -> None

(* The fragments of [after] are the rebuild's, in order; one the rebuild
   left alone is the fragment of [before] itself; and every lookup of the
   container [after] holds is its recomputation. *)
let check_fragments tag before smo (after : Core.State.t) =
  match rebuilt before smo after with
  | None -> ()
  | Some expected ->
      let ours = Mapping.Fragments.to_list after.Core.State.fragments in
      Alcotest.check Alcotest.int (tag ^ ": fragments as many as the rebuild's") (List.length expected)
        (List.length ours);
      List.iter2
        (fun ((old : F.t), g) f ->
          Alcotest.check Alcotest.bool (tag ^ ": fragment as the rebuild's " ^ F.describe g) true (F.equal f g);
          if F.equal g old then
            Alcotest.check Alcotest.bool
              (tag ^ ": fragment the rebuild leaves alone stays physically " ^ F.describe old)
              true (f == old))
        expected ours;
      Adapt_walk.lookups tag after.Core.State.env after.Core.State.fragments

(* -- the views ---------------------------------------------------------------- *)

let recompile_table env frags ~table uv =
  let* v = lift (Fullc.Update_views.for_table env frags ~table) in
  Ok (Query.View.set_table_view table v uv)

(* Regenerate the query views of one entity set's hierarchy with the full
   compiler, and the update views of the tables its fragments touch. *)
let recompile_set env frags ~set (st : Core.State.t) =
  let* set_views = lift (Fullc.Query_views.for_set env frags ~set) in
  let touched =
    List.sort_uniq String.compare
      (List.map (fun (f : Mapping.Fragment.t) -> f.Mapping.Fragment.table)
         (Mapping.Fragments.of_set frags set))
  in
  let* update_views =
    List.fold_left
      (fun acc table -> Result.bind acc (recompile_table env frags ~table))
      (Ok st.Core.State.update_views) touched
  in
  let query_views =
    List.fold_left
      (fun acc (ty, v) -> Query.View.set_entity_view ty v acc)
      st.Core.State.query_views set_views
  in
  Ok { Core.State.env; fragments = frags; query_views; update_views }

(* The query views [smo] had to produce from [before], given the evolved
   mapping of [after]: the shrunken set's regenerated by the full compiler;
   [None] for an SMO that does not shrink the mapping. *)
let expected_query_views (before : Core.State.t) smo (after : Core.State.t) =
  let env = after.Core.State.env and frags = after.Core.State.fragments in
  let client = before.Core.State.env.Query.Env.client in
  let qv = before.Core.State.query_views in
  let regenerate ~set query_views =
    Some
      (Result.map
         (fun (st : Core.State.t) -> st.Core.State.query_views)
         (recompile_set env frags ~set { after with Core.State.query_views }))
  in
  match smo with
  | Core.Smo.Drop_entity { etype } ->
      regenerate ~set:(Option.get (Edm.Schema.set_of_type client etype))
        (Query.View.remove_entity_view etype qv)
  | Core.Smo.Drop_property { etype; _ } ->
      regenerate ~set:(Option.get (Edm.Schema.set_of_type client etype)) qv
  | Core.Smo.Drop_association { assoc } -> Some (Ok (Query.View.remove_assoc_view assoc qv))
  | Core.Smo.Refactor { assoc } ->
      let e1 = (Option.get (Edm.Schema.find_association client assoc)).Edm.Association.end1 in
      regenerate
        ~set:(Option.get (Edm.Schema.set_of_type env.Query.Env.client e1))
        (Query.View.remove_assoc_view assoc qv)
  | _ -> None

(* The update views of [after]: a table whose fragments [before] and
   [after] share, one for one and physically, keeps its view of [before]
   physically; a table whose fragments changed has the view the full
   compiler regenerates from its remaining fragments, or none when it has
   none left. *)
let check_update_views tag (before : Core.State.t) (after : Core.State.t) =
  let env = after.Core.State.env and frags = after.Core.State.fragments in
  let tables (st : Core.State.t) =
    List.map fst (Query.View.update_view_bindings st.Core.State.update_views)
  in
  List.iter
    (fun t ->
      let ours = Query.View.table_view after.Core.State.update_views t in
      match Mapping.Fragments.on_table frags t with
      | on when List.equal ( == ) on (Mapping.Fragments.on_table before.Core.State.fragments t) ->
          Alcotest.check Alcotest.bool
            (tag ^ ": update view of " ^ t ^ ", whose fragments stay, stays physically the same")
            true
            (match Query.View.table_view before.Core.State.update_views t, ours with
            | Some v, Some w -> v == w
            | None, None -> true
            | Some _, None | None, Some _ -> false)
      | [] ->
          Alcotest.check Alcotest.bool (tag ^ ": " ^ t ^ ", left without a fragment, has no update view")
            true (ours = None)
      | _ -> (
          match Fullc.Update_views.for_table env frags ~table:t, ours with
          | Ok v, Some w ->
              Alcotest.check Alcotest.bool (tag ^ ": rebuilt update view of " ^ t ^ " as the reference")
                true (Query.Algebra.equal v w)
          | Ok _, None -> Alcotest.failf "%s: %s lost its update view" tag t
          | Error e, _ -> Alcotest.failf "%s: reference regeneration of %s failed: %s" tag t e))
    (List.sort_uniq String.compare (tables before @ tables after))

(* -- the proofs ---------------------------------------------------------------- *)

(* The foreign-key obligations a drop emitted when the shared tail
   re-proved every foreign key, whose two ends keep an update view, of the
   set's remaining tables (DropEntity) or of the association's table
   (DropAssociation). *)
let unsliced_fk_obligations (before : Core.State.t) smo (after : Core.State.t) =
  let env = after.Core.State.env and uv = after.Core.State.update_views in
  let tables =
    match smo with
    | Core.Smo.Drop_entity { etype } ->
        let set = Option.get (Edm.Schema.set_of_type before.Core.State.env.Query.Env.client etype) in
        List.sort_uniq String.compare
          (List.map (fun (f : F.t) -> f.table) (Mapping.Fragments.of_set after.Core.State.fragments set))
    | Core.Smo.Drop_association { assoc } ->
        [ (List.hd (Mapping.Fragments.of_assoc before.Core.State.fragments assoc)).F.table ]
    | _ -> []
  in
  let has_view t = Query.View.table_view uv t <> None in
  List.concat_map
    (fun table ->
      match Relational.Schema.find_table env.Query.Env.store table with
      | Some tbl when has_view table ->
          List.concat_map
            (fun (fk : Relational.Table.foreign_key) ->
              if has_view fk.ref_table then Result.get_ok (Core.Algo.fk_obligations env uv ~table fk)
              else [])
            tbl.Relational.Table.fks
      | Some _ | None -> [])
    tables

(* What [smo] no longer proves holds on [after], given that [before] was
   valid: every unsliced foreign key, and after DropProperty the coverage
   of every type of the hierarchy. *)
let check_unproven tag (before : Core.State.t) smo (after : Core.State.t) =
  (match Containment.Discharge.run (unsliced_fk_obligations before smo after) with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "%s: a foreign key the drop no longer proves fails: %s" tag
        (Containment.Validation_error.show e));
  match smo with
  | Core.Smo.Drop_property { etype; _ } ->
      let env = after.Core.State.env in
      let client = env.Query.Env.client in
      List.iter
        (fun ty ->
          match Mapping.Coverage.attribute_coverage env after.Core.State.fragments ~etype:ty with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s loses coverage: %s" tag ty e)
        (Edm.Schema.subtypes client (Edm.Schema.root_of client etype))
  | _ -> ()

let entity_bindings qv =
  List.map (fun (n, v) -> ("entity " ^ n, v)) (Query.View.entity_view_bindings qv)

let assoc_bindings qv = List.map (fun (n, q) -> ("assoc " ^ n, q)) (Query.View.assoc_view_bindings qv)

(* The same names in the same order, and equal views under each. *)
let same_bindings tag equal ours theirs =
  Alcotest.check
    Alcotest.(list string)
    (tag ^ ": the reference's view bindings") (List.map fst theirs) (List.map fst ours);
  List.iter2
    (fun (n, v) (_, w) -> Alcotest.check Alcotest.bool (tag ^ ": " ^ n ^ " as the reference") true (equal v w))
    ours theirs

(* A few sampled client states of each state roundtrip through its views. *)
let check_roundtrips tag (st : Core.State.t) =
  match
    Roundtrip.Check.roundtrips st.Core.State.env st.Core.State.query_views
      st.Core.State.update_views ~samples:2 ~entities_per_set:3 ()
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "%s: %a" tag Roundtrip.Check.pp_failure f

(* The fragments and views of [after], the state [smo] produced from
   [before], are the rebuild's and the reference's, both states roundtrip,
   and what [smo] no longer proves holds. *)
let check tag (before : Core.State.t) smo (after : Core.State.t) =
  check_fragments tag before smo after;
  check_unproven tag before smo after;
  match expected_query_views before smo after with
  | None -> ()
  | Some (Error e) ->
      Alcotest.failf "%s: reference regeneration failed: %s" tag
        (Containment.Validation_error.show e)
  | Some (Ok reference) ->
      let qv = after.Core.State.query_views in
      same_bindings tag Query.View.equal (entity_bindings qv) (entity_bindings reference);
      same_bindings tag Query.Algebra.equal (assoc_bindings qv) (assoc_bindings reference);
      check_update_views tag before after;
      check_roundtrips (tag ^ ": before") before;
      check_roundtrips (tag ^ ": after") after
