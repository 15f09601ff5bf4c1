type t = Tpt | Tpc | Tph | Unknown [@@deriving show { with_path = false }]

(* A type's "own" fragment may have been widened by later SMOs: the Σ*
   adaptation turns [IS OF (ONLY P)] into [IS OF (ONLY P) ∨ IS OF E], so we
   accept conditions whose type atoms test the type itself plus any of its
   descendants (the client schema is not available here; descendants are
   recognized as "not the type but mentioned alongside it"). *)
let own_fragment frags ~etype ~set =
  let tests_type (f : Mapping.Fragment.t) =
    match Query.Cond.type_atoms f.Mapping.Fragment.client_cond with
    | [] -> false
    | atoms ->
        List.exists
          (function
            | Query.Cond.Is_of t | Query.Cond.Is_of_only t -> t = etype
            | _ -> false)
          atoms
  in
  let exact (f : Mapping.Fragment.t) =
    match Query.Cond.type_atoms f.Mapping.Fragment.client_cond with
    | [ Query.Cond.Is_of t ] | [ Query.Cond.Is_of_only t ] -> t = etype
    | _ -> false
  in
  let candidates = List.filter tests_type (Mapping.Fragments.of_set frags set) in
  match List.find_opt exact candidates with
  | Some f -> Some f
  | None -> (
      (* Prefer a fragment where the type atom testing [etype] is the ONLY
         form (the widened shape); fall back to any candidate. *)
      match
        List.find_opt
          (fun (f : Mapping.Fragment.t) ->
            List.exists
              (function Query.Cond.Is_of_only t -> t = etype | _ -> false)
              (Query.Cond.type_atoms f.Mapping.Fragment.client_cond))
          candidates
      with
      | Some f -> Some f
      | None -> ( match candidates with f :: _ -> Some f | [] -> None))

let key_carrier env frags ~etype =
  let client = env.Query.Env.client in
  match Edm.Schema.set_of_type client etype with
  | None -> None
  | Some set -> (
      match own_fragment frags ~etype ~set with
      | None -> None
      | Some f -> (
          let key = Edm.Schema.key_of client etype in
          match Relational.Schema.find_table env.Query.Env.store f.Mapping.Fragment.table with
          | None -> None
          | Some tbl ->
              let pairs =
                List.filter_map
                  (fun k ->
                    match Mapping.Fragment.col_of f k with
                    | Some c when List.mem c tbl.Relational.Table.key -> Some (k, c)
                    | Some _ | None -> None)
                  key
              in
              if List.length pairs = List.length key then
                Some (f.Mapping.Fragment.table, pairs)
              else None))

let detect env frags ~etype =
  let client = env.Query.Env.client in
  match Edm.Schema.set_of_type client etype with
  | None -> Unknown
  | Some set -> (
      match own_fragment frags ~etype ~set with
      | None -> Unknown
      | Some f -> (
          let shares_parent_table =
            match Edm.Schema.parent client etype with
            | None -> false
            | Some p -> (
                match own_fragment frags ~etype:p ~set with
                | Some pf -> pf.Mapping.Fragment.table = f.Mapping.Fragment.table
                | None -> false)
          in
          let has_discriminator =
            Query.Cond.determined_constants f.Mapping.Fragment.store_cond <> []
          in
          let att = Edm.Schema.attribute_names client etype in
          let own =
            match Edm.Schema.find_type client etype with
            | Some e -> Edm.Entity_type.declared_names e
            | None -> []
          in
          let key = Edm.Schema.key_of client etype in
          let mapped = Mapping.Fragment.attrs f in
          let maps_all = List.for_all (fun a -> List.mem a mapped) att in
          let maps_declared_only =
            List.for_all (fun a -> List.mem a own || List.mem a key) mapped
          in
          match () with
          | () when shares_parent_table && has_discriminator -> Tph
          | () when (not shares_parent_table) && maps_all && Edm.Schema.parent client etype <> None
            ->
              Tpc
          | () when (not shares_parent_table) && maps_declared_only -> Tpt
          | () -> Unknown))
