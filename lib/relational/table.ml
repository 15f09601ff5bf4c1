type column = { cname : string; domain : Datum.Domain.t; nullable : bool }
[@@deriving eq, show { with_path = false }]

type foreign_key = {
  fk_columns : string list;
  ref_table : string;
  ref_columns : string list;
}
[@@deriving eq, show { with_path = false }]

type t = {
  name : string;
  columns : column list;
  key : string list;
  fks : foreign_key list;
}
[@@deriving eq, show { with_path = false }]

let make ~name ~key ?(fks = []) cols =
  let columns =
    List.map (fun (cname, domain, n) -> { cname; domain; nullable = n = `Null }) cols
  in
  assert (key <> []);
  assert (List.for_all (fun k -> List.exists (fun c -> c.cname = k) columns) key);
  { name; columns; key; fks }

(* The lookups below allocate at most their result: lint asks them for
   every column of every fragment. *)
let rec find_column c = function
  | [] -> raise Not_found
  | col :: rest -> if String.equal col.cname c then col else find_column c rest

let column t c = match find_column c t.columns with col -> Some col | exception Not_found -> None
let column_names t = List.map (fun c -> c.cname) t.columns
let mem_column t c = match find_column c t.columns with _ -> true | exception Not_found -> false
let domain_of t c =
  match find_column c t.columns with col -> Some col.domain | exception Not_found -> None

let nullable t c =
  match find_column c t.columns with col -> col.nullable | exception Not_found -> false

let non_key_columns t = List.filter (fun c -> not (List.mem c t.key)) (column_names t)
let add_column t c = { t with columns = t.columns @ [ c ] }
let add_fk t fk = { t with fks = t.fks @ [ fk ] }
