let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let type_names schema = List.map (fun (e : Edm.Entity_type.t) -> e.Edm.Entity_type.name) (Edm.Schema.types schema)

(* Reject edits the SMO vocabulary cannot express. *)
let check_expressible (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  let* () =
    Datum.Results.all_ok
      (fun name ->
        match Edm.Schema.find_type target name with
        | None ->
            (* Dropped: every dropped type's descendants must be dropped too
               (leaf-wise drops), which holds iff no surviving type has a
               dropped parent — checked below for survivors. *)
            Ok ()
        | Some nt ->
            let ot = Option.get (Edm.Schema.find_type old_client name) in
            let* () =
              if ot.Edm.Entity_type.parent = nt.Edm.Entity_type.parent then Ok ()
              else fail "entity type %s changed parent; not expressible as SMOs" name
            in
            let* () =
              Datum.Results.all_ok
                (fun (a, dom) ->
                  match List.assoc_opt a nt.Edm.Entity_type.declared with
                  | Some dom' when Datum.Domain.equal dom dom' -> Ok ()
                  | Some dom' when Datum.Domain.subsumes ~wide:dom' ~narrow:dom ->
                      Ok () (* widened: handled by widened_properties *)
                  | Some _ -> fail "attribute %s.%s changed domain incompatibly" name a
                  | None -> Ok () (* dropped: handled by dropped_properties *))
                ot.Edm.Entity_type.declared
            in
            Ok ())
      (type_names old_client)
  in
  Datum.Results.all_ok
    (fun (a : Edm.Association.t) ->
      match Edm.Schema.find_association target a.Edm.Association.name with
      | Some a' when Edm.Association.equal a a' -> Ok ()
      | Some a'
        when a'.Edm.Association.end1 = a.Edm.Association.end1
             && a'.Edm.Association.end2 = a.Edm.Association.end2 ->
          Ok () (* multiplicity change: handled by changed_multiplicities *)
      | Some _ -> fail "association %s changed endpoints; not expressible as SMOs" a.Edm.Association.name
      | None -> Ok () (* dropped: handled by dropped_assocs *))
    (Edm.Schema.associations old_client)

let drops (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  let dropped =
    List.filter (fun n -> not (Edm.Schema.mem_type target n)) (type_names old_client)
  in
  (* Leaves-first: deeper types drop before their ancestors. *)
  let depth n = List.length (Edm.Schema.ancestors old_client n) in
  dropped
  |> List.sort (fun a b -> compare (depth b) (depth a))
  |> List.map (fun etype -> Core.Smo.Drop_entity { etype })

let dropped_assocs (st : Core.State.t) ~target =
  List.filter_map
    (fun (a : Edm.Association.t) ->
      if Edm.Schema.find_association target a.Edm.Association.name = None then
        Some (Core.Smo.Drop_association { assoc = a.Edm.Association.name })
      else None)
    (Edm.Schema.associations st.Core.State.env.Query.Env.client)

let dropped_properties (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  List.concat_map
    (fun name ->
      match Edm.Schema.find_type target name with
      | None -> []
      | Some nt ->
          let ot = Option.get (Edm.Schema.find_type old_client name) in
          List.filter_map
            (fun (a, _) ->
              if List.mem_assoc a nt.Edm.Entity_type.declared then None
              else Some (Core.Smo.Drop_property { etype = name; attr = a }))
            ot.Edm.Entity_type.declared)
    (type_names old_client)

let widened_properties (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  List.concat_map
    (fun name ->
      match Edm.Schema.find_type target name with
      | None -> []
      | Some nt ->
          let ot = Option.get (Edm.Schema.find_type old_client name) in
          List.filter_map
            (fun (a, dom) ->
              match List.assoc_opt a nt.Edm.Entity_type.declared with
              | Some dom' when not (Datum.Domain.equal dom dom') ->
                  Some (Core.Smo.Widen_attribute { etype = name; attr = a; domain = dom' })
              | _ -> None)
            ot.Edm.Entity_type.declared)
    (type_names old_client)

let changed_multiplicities (st : Core.State.t) ~target =
  List.filter_map
    (fun (a : Edm.Association.t) ->
      match Edm.Schema.find_association target a.Edm.Association.name with
      | Some a' when not (Edm.Association.equal a a') ->
          Some
            (Core.Smo.Set_multiplicity
               { assoc = a.Edm.Association.name;
                 mult = (a'.Edm.Association.mult1, a'.Edm.Association.mult2) })
      | _ -> None)
    (Edm.Schema.associations st.Core.State.env.Query.Env.client)

let added_types (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  let added = List.filter (fun n -> not (Edm.Schema.mem_type old_client n)) (type_names target) in
  (* Parents-first. *)
  let depth n = List.length (Edm.Schema.ancestors target n) in
  List.sort (fun a b -> compare (depth a) (depth b)) added

let smo_for_added (st : Core.State.t) ~target ~styles name =
  let client = st.Core.State.env.Query.Env.client in
  let entity = Option.get (Edm.Schema.find_type target name) in
  let* parent =
    match entity.Edm.Entity_type.parent with
    | Some p -> Ok p
    | None -> fail "new hierarchy root %s is not expressible as an SMO" name
  in
  let parent_style =
    match List.assoc_opt parent styles with
    | Some s -> s
    | None -> Style.detect st.Core.State.env st.Core.State.fragments ~etype:parent
  in
  let key = Edm.Schema.key_of target name in
  let att = Edm.Schema.attribute_names target name in
  let declared = Edm.Entity_type.declared_names entity in
  let dom a = Option.get (Edm.Schema.attribute_domain target name a) in
  match parent_style with
  | Style.Tph -> (
      (* Reuse the parent's table and discriminator column; the new type's
         name is its discriminator value. *)
      match
        Option.bind
          (Edm.Schema.set_of_type client parent)
          (fun set -> Style.own_fragment st.Core.State.fragments ~etype:parent ~set)
      with
      | None -> fail "cannot locate the TPH fragment of %s" parent
      | Some pf -> (
          match Query.Cond.determined_constants pf.Mapping.Fragment.store_cond with
          | (disc, _) :: _ ->
              Ok
                ( Core.Smo.Add_entity_tph
                    { entity; table = pf.Mapping.Fragment.table;
                      fmap = List.map (fun a -> (a, a)) att;
                      discriminator = (disc, Datum.Value.String name) },
                  Style.Tph )
          | [] -> fail "TPH parent %s has no discriminator" parent))
  | Style.Tpc ->
      let table =
        Relational.Table.make ~name:("T" ^ name) ~key
          (List.map
             (fun a -> (a, dom a, if List.mem a key then `Not_null else `Null))
             att)
      in
      Ok
        ( Core.Smo.Add_entity
            { entity; alpha = att; p_ref = None; table;
              fmap = List.map (fun a -> (a, a)) att },
          Style.Tpc )
  | Style.Tpt | Style.Unknown ->
      let alpha = key @ List.filter (fun a -> not (List.mem a key)) declared in
      let fks =
        match Style.key_carrier st.Core.State.env st.Core.State.fragments ~etype:parent with
        | Some (ptable, pairs) ->
            [ { Relational.Table.fk_columns = key; ref_table = ptable;
                ref_columns = List.map snd pairs } ]
        | None -> []
      in
      let table =
        Relational.Table.make ~name:("T" ^ name) ~key ~fks
          (List.map
             (fun a -> (a, dom a, if List.mem a key then `Not_null else `Null))
             alpha)
      in
      Ok
        ( Core.Smo.Add_entity
            { entity; alpha; p_ref = Some parent; table;
              fmap = List.map (fun a -> (a, a)) alpha },
          Style.Tpt )

let added_properties (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  List.concat_map
    (fun name ->
      match Edm.Schema.find_type target name with
      | None -> []
      | Some nt ->
          let ot = Option.get (Edm.Schema.find_type old_client name) in
          List.filter_map
            (fun (a, dom) ->
              if List.mem_assoc a ot.Edm.Entity_type.declared then None
              else
                let targetting =
                  match Style.key_carrier st.Core.State.env st.Core.State.fragments ~etype:name with
                  | Some (table, _) -> Core.Add_property.To_existing_table { table; column = a }
                  | None ->
                      let key = Edm.Schema.key_of old_client name in
                      let key_dom k =
                        Option.value ~default:Datum.Domain.Int
                          (Edm.Schema.attribute_domain old_client name k)
                      in
                      Core.Add_property.To_new_table
                        { table =
                            Relational.Table.make ~name:("T" ^ name ^ "_" ^ a) ~key
                              (List.map (fun k -> (k, key_dom k, `Not_null)) key
                              @ [ (a, dom, `Null) ]);
                          fmap = List.map (fun k -> (k, k)) key @ [ (a, a) ] }
                in
                Some (Core.Smo.Add_property { etype = name; attr = (a, dom); target = targetting }))
            nt.Edm.Entity_type.declared)
    (type_names old_client)

let added_assocs (st : Core.State.t) ~target =
  let old_client = st.Core.State.env.Query.Env.client in
  List.filter_map
    (fun (a : Edm.Association.t) ->
      if Edm.Schema.find_association old_client a.Edm.Association.name <> None then None
      else
        let key1 = Edm.Schema.key_of target a.Edm.Association.end1 in
        let key2 = Edm.Schema.key_of target a.Edm.Association.end2 in
        let cols1 = List.map (fun k -> ("L_" ^ k, k)) key1 in
        let cols2 = List.map (fun k -> ("R_" ^ k, k)) key2 in
        let dom side etype k =
          ignore side;
          Option.value ~default:Datum.Domain.Int (Edm.Schema.attribute_domain target etype k)
        in
        let key =
          if a.Edm.Association.mult2 = Edm.Association.Many then
            List.map fst cols1 @ List.map fst cols2
          else List.map fst cols1
        in
        let table =
          Relational.Table.make ~name:("J" ^ a.Edm.Association.name) ~key
            (List.map (fun (c, k) -> (c, dom `L a.Edm.Association.end1 k, `Not_null)) cols1
            @ List.map (fun (c, k) -> (c, dom `R a.Edm.Association.end2 k, `Not_null)) cols2)
        in
        let fmap =
          List.map
            (fun (c, k) -> (Edm.Association.qualify ~etype:a.Edm.Association.end1 k, c))
            cols1
          @ List.map
              (fun (c, k) -> (Edm.Association.qualify ~etype:a.Edm.Association.end2 k, c))
              cols2
        in
        Some (Core.Smo.Add_assoc_jt { assoc = a; table; fmap }))
    (Edm.Schema.associations target)

let infer (st : Core.State.t) ~target =
  let* () = check_expressible st ~target in
  let drops = drops st ~target in
  (* Thread the styles chosen for freshly added parents so a chain of new
     types inherits a consistent strategy. *)
  let* adds_rev, _ =
    List.fold_left
      (fun acc name ->
        let* smos, styles = acc in
        let* smo, style = smo_for_added st ~target ~styles name in
        Ok (smo :: smos, (name, style) :: styles))
      (Ok ([], []))
      (added_types st ~target)
  in
  Ok
    (dropped_assocs st ~target @ dropped_properties st ~target @ drops
    @ widened_properties st ~target @ changed_multiplicities st ~target
    @ List.rev adds_rev @ added_properties st ~target @ added_assocs st ~target)
