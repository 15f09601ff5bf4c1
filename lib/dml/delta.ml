type op = Ivm.Apply.op =
  | Insert_entity of { set : string; entity : Edm.Instance.entity }
  | Delete_entity of { set : string; key : Datum.Row.t }
  | Update_entity of { set : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }
  | Insert_link of { assoc : string; link : Datum.Row.t }
  | Delete_link of { assoc : string; link : Datum.Row.t }

type t = op list

let pp_op fmt = function
  | Insert_entity { set; entity } ->
      Format.fprintf fmt "insert %a into %s" Edm.Instance.pp_entity entity set
  | Delete_entity { set; key } -> Format.fprintf fmt "delete %a from %s" Datum.Row.pp key set
  | Update_entity { set; key; changes } ->
      Format.fprintf fmt "update %a in %s: %a" Datum.Row.pp key set Datum.Row.pp
        (Datum.Row.of_list changes)
  | Insert_link { assoc; link } -> Format.fprintf fmt "link %a in %s" Datum.Row.pp link assoc
  | Delete_link { assoc; link } -> Format.fprintf fmt "unlink %a in %s" Datum.Row.pp link assoc

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_op) t

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let key_of_entity schema (e : Edm.Instance.entity) =
  Datum.Row.project (Edm.Schema.key_of schema e.Edm.Instance.etype) e.Edm.Instance.attrs

let find_entity schema inst ~set ~key =
  List.find_opt
    (fun e -> Datum.Row.equal (key_of_entity schema e) key)
    (Edm.Instance.entities inst ~set)

(* Does any association tuple reference the entity with this key? *)
let participates schema inst ~etype ~key =
  List.exists
    (fun (a : Edm.Association.t) ->
      let ends etype' =
        if Edm.Schema.is_subtype schema ~sub:etype ~sup:etype' then
          let keyattrs = Edm.Schema.key_of schema etype' in
          let cols = List.map (Edm.Association.qualify ~etype:etype') keyattrs in
          List.exists
            (fun link ->
              List.for_all2
                (fun k c -> Datum.Value.equal (Datum.Row.get k key) (Datum.Row.get c link))
                keyattrs cols)
            (Edm.Instance.links inst ~assoc:a.Edm.Association.name)
        else false
      in
      ends a.Edm.Association.end1 || ends a.Edm.Association.end2)
    (Edm.Schema.associations schema)

let apply_op schema inst = function
  | Insert_entity { set; entity } -> (
      let* () =
        match Edm.Schema.set_root schema set with
        | Some _ -> Ok ()
        | None -> fail "unknown entity set %s" set
      in
      let key = key_of_entity schema entity in
      match find_entity schema inst ~set ~key with
      | Some _ -> fail "insert: key %s already present in %s" (Datum.Row.show key) set
      | None -> Ok (Edm.Instance.add_entity ~set entity inst))
  | Delete_entity { set; key } -> (
      match find_entity schema inst ~set ~key with
      | None -> fail "delete: no entity with key %s in %s" (Datum.Row.show key) set
      | Some victim ->
          if participates schema inst ~etype:victim.Edm.Instance.etype ~key then
            fail "delete: entity %s still participates in an association" (Datum.Row.show key)
          else
            Ok
              (Edm.Instance.set_entities ~set
                 (List.filter
                    (fun e -> not (Datum.Row.equal (key_of_entity schema e) key))
                    (Edm.Instance.entities inst ~set))
                 inst))
  | Update_entity { set; key; changes } -> (
      match find_entity schema inst ~set ~key with
      | None -> fail "update: no entity with key %s in %s" (Datum.Row.show key) set
      | Some target ->
          let etype = target.Edm.Instance.etype in
          let keyattrs = Edm.Schema.key_of schema etype in
          let* () =
            match List.find_opt (fun (a, _) -> List.mem a keyattrs) changes with
            | Some (a, _) -> fail "update: key attribute %s is immutable" a
            | None -> Ok ()
          in
          let* () =
            match
              List.find_opt
                (fun (a, _) -> Edm.Schema.attribute_domain schema etype a = None)
                changes
            with
            | Some (a, _) -> fail "update: %s has no attribute %s" etype a
            | None -> Ok ()
          in
          let updated =
            {
              target with
              Edm.Instance.attrs =
                List.fold_left (fun r (a, v) -> Datum.Row.add a v r) target.Edm.Instance.attrs
                  changes;
            }
          in
          Ok
            (Edm.Instance.set_entities ~set
               (updated
               :: List.filter
                    (fun e -> not (Datum.Row.equal (key_of_entity schema e) key))
                    (Edm.Instance.entities inst ~set))
               inst))
  | Insert_link { assoc; link } ->
      let* () =
        match Edm.Schema.find_association schema assoc with
        | Some _ -> Ok ()
        | None -> fail "unknown association %s" assoc
      in
      if List.exists (Datum.Row.equal link) (Edm.Instance.links inst ~assoc) then
        fail "link already present in %s" assoc
      else Ok (Edm.Instance.add_link ~assoc link inst)
  | Delete_link { assoc; link } ->
      if not (List.exists (Datum.Row.equal link) (Edm.Instance.links inst ~assoc)) then
        fail "unlink: no such tuple in %s" assoc
      else
        Ok
          (Edm.Instance.set_links ~assoc
             (List.filter
                (fun l -> not (Datum.Row.equal l link))
                (Edm.Instance.links inst ~assoc))
             inst)

let apply schema inst delta =
  let* out =
    List.fold_left
      (fun acc op -> Result.bind acc (fun inst -> apply_op schema inst op))
      (Ok inst) delta
  in
  let* () = Edm.Instance.conforms schema out in
  Ok out
