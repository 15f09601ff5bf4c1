type t = {
  name : string;
  parent : string option;
  declared : (string * Datum.Domain.t) list;
  key : string list;
  non_null : string list;
}
[@@deriving eq]

let root ~name ~key ?(non_null = []) declared =
  assert (key <> []);
  assert (List.for_all (fun k -> List.mem_assoc k declared) key);
  assert (List.for_all (fun a -> List.mem_assoc a declared) non_null);
  { name; parent = None; declared; key; non_null }

let derived ~name ~parent ?(non_null = []) declared =
  assert (List.for_all (fun a -> List.mem_assoc a declared) non_null);
  { name; parent = Some parent; declared; key = []; non_null }
let declared_names t = List.map fst t.declared
