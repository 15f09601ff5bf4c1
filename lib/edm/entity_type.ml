type t = {
  name : string;
  parent : string option;
  declared : (string * Datum.Domain.t) list;
  key : string list;
  non_null : string list;
}
[@@deriving eq]

let root ~name ~key ?(non_null = []) declared = { name; parent = None; declared; key; non_null }

let derived ~name ~parent ?(non_null = []) declared =
  { name; parent = Some parent; declared; key = []; non_null }
let declared_names t = List.map fst t.declared
