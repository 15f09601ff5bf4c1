(* The view regeneration of the shrinking SMOs (DropEntity, DropProperty,
   DropAssociation, Refactor) as each of them did it before they shared
   [Core.Algo.shrink]: [drop_orphans] and [recompile_set] are the former
   [Algo.drop_orphaned_views] and [Algo.recompile_set].  [check] compares
   the views of an accepted shrinking SMO with them, binding by binding; the
   surgery tests use [recompile_set] as the reference for AddEntityPart. *)

let ( let* ) = Result.bind
let lift r = Containment.Validation_error.lift r

(* Remove the update view of every table [before] maps and [frags] does
   not. *)
let drop_orphans ~before frags uv =
  let after = Mapping.Fragments.tables frags in
  List.fold_left
    (fun uv t -> if List.mem t after then uv else Query.View.remove_table_view t uv)
    uv (Mapping.Fragments.tables before)

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

(* The state [smo] had to produce from [before], given the evolved mapping
   of [after]; [None] for an SMO that does not shrink the mapping. *)
let expected (before : Core.State.t) smo (after : Core.State.t) =
  let env = after.Core.State.env and frags = after.Core.State.fragments in
  let client = before.Core.State.env.Query.Env.client in
  let qv = before.Core.State.query_views in
  let uv = drop_orphans ~before:before.Core.State.fragments frags before.Core.State.update_views in
  let regenerate ~set query_views update_views =
    Some (recompile_set env frags ~set { after with Core.State.query_views; update_views })
  in
  match smo with
  | Core.Smo.Drop_entity { etype } ->
      let set = Option.get (Edm.Schema.set_of_type client etype) in
      regenerate ~set (Query.View.remove_entity_view etype qv) uv
  | Core.Smo.Drop_property { etype; _ } ->
      regenerate ~set:(Option.get (Edm.Schema.set_of_type client etype)) qv uv
  | Core.Smo.Drop_association { assoc } ->
      let t =
        (List.hd (Mapping.Fragments.of_assoc before.Core.State.fragments assoc))
          .Mapping.Fragment.table
      in
      let uv =
        if Query.View.table_view uv t = None then Ok uv else recompile_table env frags ~table:t uv
      in
      Some
        (Result.map
           (fun update_views ->
             { after with
               Core.State.query_views = Query.View.remove_assoc_view assoc qv; update_views })
           uv)
  | Core.Smo.Refactor { assoc } ->
      let e1 = (Option.get (Edm.Schema.find_association client assoc)).Edm.Association.end1 in
      let set = Option.get (Edm.Schema.set_of_type env.Query.Env.client e1) in
      regenerate ~set (Query.View.remove_assoc_view assoc qv) before.Core.State.update_views
  | _ -> None

let entity_bindings (st : Core.State.t) =
  List.map (fun (n, v) -> ("entity " ^ n, v)) (Query.View.entity_view_bindings st.Core.State.query_views)

let assoc_bindings (st : Core.State.t) =
  List.map (fun (n, q) -> ("assoc " ^ n, q)) (Query.View.assoc_view_bindings st.Core.State.query_views)

let update_bindings (st : Core.State.t) =
  List.map (fun (n, q) -> ("table " ^ n, q)) (Query.View.update_view_bindings st.Core.State.update_views)

(* The same names in the same order, and equal views under each. *)
let same_bindings tag equal ours theirs =
  Alcotest.check
    Alcotest.(list string)
    (tag ^ ": the reference's view bindings") (List.map fst theirs) (List.map fst ours);
  List.iter2
    (fun (n, v) (_, w) -> Alcotest.check Alcotest.bool (tag ^ ": " ^ n ^ " as the reference") true (equal v w))
    ours theirs

(* The views of [after], the state [smo] produced from [before], are the
   reference's, binding by binding. *)
let check tag (before : Core.State.t) smo (after : Core.State.t) =
  match expected before smo after with
  | None -> ()
  | Some (Error e) ->
      Alcotest.failf "%s: reference regeneration failed: %s" tag
        (Containment.Validation_error.show e)
  | Some (Ok reference) ->
      same_bindings tag Query.View.equal (entity_bindings after) (entity_bindings reference);
      same_bindings tag Query.Algebra.equal (assoc_bindings after) (assoc_bindings reference);
      same_bindings tag Query.Algebra.equal (update_bindings after) (update_bindings reference)
