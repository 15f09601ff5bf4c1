let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let attribute_coverage env frags ~etype =
  let client = env.Query.Env.client in
  let* set =
    match Edm.Schema.set_of_type client etype with
    | Some s -> Ok s
    | None -> fail "entity type %s belongs to no set" etype
  in
  let set_frags = Fragments.of_set frags set in
  Datum.Results.all_ok
    (fun (attr, _dom) ->
      let covering =
        List.filter_map
          (fun (f : Fragment.t) ->
            let cond = f.Fragment.client_cond in
            if Fragment.mem_attr f attr || Query.Cond.determines cond attr then Some cond
            else None)
          set_frags
      in
      if Query.Cover.tautology client ~etype (Query.Cond.disj covering) then Ok ()
      else fail "attribute %s of entity type %s is not covered by the mapping" attr etype)
    (Edm.Schema.attributes client etype)

let writes (f : Fragment.t) c = Fragment.mem_col f c || Query.Cond.determines f.Fragment.store_cond c

let unwritten_not_null frags (table : Relational.Table.t) =
  List.filter_map
    (fun (col : Relational.Table.column) ->
      let c = col.Relational.Table.cname in
      if col.Relational.Table.nullable || List.exists (fun f -> writes f c) frags then None
      else Some c)
    table.Relational.Table.columns
