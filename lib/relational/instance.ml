module M = Map.Make (String)

type image = {
  layout : string array;
  counts : int Datum.Tuple.Map.t;
  key : (int * Datum.Tuple.t list Datum.Value.Map.t) option;
}

(* A table is its rows or a maintainer's image of them, and the value
   arrays [values] last gave it in, filled on first use; an image's [Datum]
   rows are built from its arrays on first use too.  Every change makes a
   new record, so what a record keeps always belongs to its rows. *)
type table = {
  image : image option;
  mutable rows : Datum.Row.t list option;
  mutable values : (string array * Datum.Value.t array list) option;
}

type t = table M.t

let empty = M.empty
let listed rows = { image = None; rows = Some rows; values = None }

let same_layout a b = a == b || a = b

(* An image's rows in its own layout, ascending. *)
let image_values tb (img : image) =
  match tb.values with
  | Some (l, vs) when same_layout l img.layout -> vs
  | _ ->
      let vs = List.rev (Datum.Tuple.Map.fold (fun r _ acc -> r :: acc) img.counts []) in
      tb.values <- Some (img.layout, vs);
      vs

let table_rows tb =
  match (tb.rows, tb.image) with
  | Some rows, _ -> rows
  | None, None -> []
  | None, Some img ->
      let rows = List.map (Datum.Row.of_values img.layout) (image_values tb img) in
      tb.rows <- Some rows;
      rows

let add_row ~table:name r t =
  M.update name
    (function None -> Some (listed [ r ]) | Some tb -> Some (listed (r :: table_rows tb)))
    t

let set_rows ~table:name rows t = M.add name (listed rows) t

let set_image ~table:name img t = M.add name { image = Some img; rows = None; values = None } t

let image t ~table = match M.find table t with tb -> tb.image | exception Not_found -> None
let rows t ~table = match M.find_opt table t with Some tb -> table_rows tb | None -> []
let tables t = List.map fst (M.bindings t)

let values t ~table layout =
  match M.find_opt table t with
  | None -> []
  | Some { values = Some (l, vs); _ } when same_layout l layout -> vs
  | Some ({ image = Some img; _ } as tb) when same_layout img.layout layout -> image_values tb img
  | Some tb ->
      let vs = List.map (Datum.Row.values layout) (table_rows tb) in
      tb.values <- Some (Array.copy layout, vs);
      vs

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let check_row (tbl : Table.t) r =
  let expected = List.sort String.compare (Table.column_names tbl) in
  let actual = List.sort String.compare (Datum.Row.columns r) in
  let* () =
    if expected = actual then Ok ()
    else
      fail "row of %s has columns {%s}, expected {%s}" tbl.name (String.concat "," actual)
        (String.concat "," expected)
  in
  Datum.Results.all_ok
    (fun (c : Table.column) ->
      let v = Datum.Row.get c.cname r in
      if Datum.Value.is_null v then
        if c.nullable then Ok () else fail "NULL in non-nullable column %s.%s" tbl.name c.cname
      else if Datum.Value.member v c.domain then Ok ()
      else fail "value %s outside domain of %s.%s" (Datum.Value.show v) tbl.name c.cname)
    tbl.columns

let check_key (tbl : Table.t) rows =
  let keys = List.map (Datum.Row.project tbl.key) rows in
  let* () =
    Datum.Results.all_ok
      (fun k ->
        if List.exists Datum.Value.is_null (List.map snd (Datum.Row.to_list k)) then
          fail "NULL key in table %s" tbl.name
        else Ok ())
      keys
  in
  let sorted = List.sort Datum.Row.compare keys in
  let rec dup = function
    | a :: (b :: _ as rest) -> if Datum.Row.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup sorted with
  | Some k -> fail "duplicate key %s in table %s" (Datum.Row.show k) tbl.name
  | None -> Ok ()

let check_fk t (tbl : Table.t) (fk : Table.foreign_key) rs =
  let targets = List.map (Datum.Row.project fk.ref_columns) (rows t ~table:fk.ref_table) in
  Datum.Results.all_ok
    (fun r ->
      let src = List.map (fun c -> Datum.Row.get c r) fk.fk_columns in
      if List.exists Datum.Value.is_null src then Ok ()
      else
        let image = Datum.Row.of_list (List.combine fk.ref_columns src) in
        if List.exists (Datum.Row.equal image) targets then Ok ()
        else
          fail "foreign key %s(%s) -> %s: dangling reference %s" tbl.name
            (String.concat "," fk.fk_columns) fk.ref_table (Datum.Row.show image))
    rs

let conforms schema t =
  Datum.Results.all_ok
    (fun table ->
      let* tbl =
        match Schema.find_table schema table with
        | Some tbl -> Ok tbl
        | None -> fail "unknown table %s" table
      in
      let rs = rows t ~table in
      let* () = Datum.Results.all_ok (check_row tbl) rs in
      let* () = check_key tbl rs in
      Datum.Results.all_ok (fun fk -> check_fk t tbl fk rs) tbl.fks)
    (tables t)

let equal a b =
  let norm m =
    M.filter_map
      (fun _ tb -> match List.sort_uniq Datum.Row.compare (table_rows tb) with [] -> None | l -> Some l)
      m
  in
  M.equal (List.equal Datum.Row.equal) (norm a) (norm b)

let pp fmt t =
  let pp_table fmt (name, tb) =
    Format.fprintf fmt "  %s: %a" name
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ") Datum.Row.pp)
      (List.sort_uniq Datum.Row.compare (table_rows tb))
  in
  Format.fprintf fmt "@[<v>%a@]" (Format.pp_print_list pp_table) (M.bindings t)
