type t = { client : Edm.Schema.t; store : Relational.Schema.t }

let make ~client ~store = { client; store }
let type_column = "$type"

let entity_set_columns t set =
  match Edm.Schema.set_root t.client set with
  | None -> invalid_arg (Printf.sprintf "Query.Env: unknown entity set %s" set)
  | Some root -> type_column :: Edm.Schema.hierarchy_attribute_names t.client root

let rev_entity_set_columns t set =
  match Edm.Schema.set_root t.client set with
  | None -> invalid_arg (Printf.sprintf "Query.Env: unknown entity set %s" set)
  | Some root -> Edm.Schema.rev_hierarchy_attribute_names t.client root [ type_column ]
