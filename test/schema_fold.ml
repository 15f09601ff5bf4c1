(* [Edm.Schema.of_declarations] as it was first written, kept as the oracle
   of the bulk builder: the same walk down from the roots, but each type is
   placed by [Edm.Schema.add_root] or [add_derived], which update the child
   and attribute indexes once per type, and each association is added by
   [add_association].  Both must build equal schemas with equal indexes, and
   refuse the same declarations with the same messages. *)

let ( let* ) = Result.bind

let of_declarations types ~sets assocs =
  let set_of = Hashtbl.create 16 and kids = Hashtbl.create 64 in
  let* () =
    Datum.Results.all_ok
      (fun (set, root) ->
        match Hashtbl.find_opt set_of root with
        | Some other -> Error (Printf.sprintf "root type %s has two entity sets, %s and %s" root other set)
        | None -> Ok (Hashtbl.add set_of root set))
      sets
  in
  List.iter
    (fun (e : Edm.Entity_type.t) -> Option.iter (fun p -> Hashtbl.add kids p e) e.parent)
    types;
  let rec place (e : Edm.Entity_type.t) t =
    match t with
    | Error _ -> t
    | Ok t ->
        let t =
          match (e.parent, Hashtbl.find_opt set_of e.name) with
          | Some _, _ -> Edm.Schema.add_derived e t
          | None, Some set -> Edm.Schema.add_root ~set e t
          | None, None -> Error (Printf.sprintf "root type %s has no entity set" e.name)
        in
        List.fold_right place (Hashtbl.find_all kids e.name) t
  in
  let* t =
    List.fold_left
      (fun t (e : Edm.Entity_type.t) -> if e.parent = None then place e t else t)
      (Ok Edm.Schema.empty) types
  in
  let* () =
    if List.length (Edm.Schema.types t) = List.length types then Ok ()
    else
      let unplaced (e : Edm.Entity_type.t) =
        match Edm.Schema.find_type t e.name with Some placed -> placed != e | None -> true
      in
      Error
        ("entity types with unresolvable parents: "
        ^ String.concat ", "
            (List.filter_map
               (fun (e : Edm.Entity_type.t) -> if unplaced e then Some e.name else None)
               types))
  in
  let* () =
    Datum.Results.all_ok
      (fun (set, root) ->
        match Edm.Schema.find_type t root with
        | Some r when r.Edm.Entity_type.parent = None -> Ok ()
        | Some _ -> Error (Printf.sprintf "entity set %s is rooted at non-root %s" set root)
        | None -> Error (Printf.sprintf "entity set %s is rooted at unknown type %s" set root))
      sets
  in
  List.fold_left (fun t a -> Result.bind t (Edm.Schema.add_association a)) (Ok t) assocs
