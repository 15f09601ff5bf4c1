let c_index_builds = Obs.Metric.counter "exec.index.builds"
let c_index_hits = Obs.Metric.counter "exec.index.hits"

module Source_key = struct
  type t = Query.Algebra.source

  let equal = Query.Algebra.equal_source
  let hash = Hashtbl.hash
end

module Source_tbl = Hashtbl.Make (Source_key)

(* [compare a b = 0], with the common cases matched directly. *)
let same_value (a : Datum.Value.t) (b : Datum.Value.t) =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | String x, String y -> String.equal x y
  | _ -> Datum.Value.compare a b = 0

module Value_tbl = Hashtbl.Make (struct
  type t = Datum.Value.t

  let equal = same_value
  let hash = Datum.Value.hash
end)

type row = Datum.Tuple.t
type index = row list Value_tbl.t

(* One source in its scan layout: the rows in scan order, listed on first
   use; a maintained key's map, when the store keeps one for the source;
   and the indexes built so far, one slot per layout column. *)
type source = {
  rows : row list Lazy.t;
  key : (int * row list Datum.Value.Map.t) option;
  indexes : index option array;
}

type t = { env : Query.Env.t; db : Query.Db.t; sources : source Source_tbl.t }

let make env db = { env; db; sources = Source_tbl.create 16 }
let db t = t.db

let scan_layout env src =
  match Query.Algebra.source_columns env src with
  | Ok cols -> Array.of_list cols
  | Error e -> invalid_arg ("Exec.Idb.scan_layout: " ^ e)

let entity_row layout (e : Edm.Instance.entity) =
  Array.map
    (fun c ->
      if String.equal c Query.Env.type_column then Datum.Value.String e.etype
      else Option.value ~default:Datum.Value.Null (Datum.Row.find c e.attrs))
    layout

let source t src =
  match Source_tbl.find t.sources src with
  | s -> s
  | exception Not_found ->
      let layout = scan_layout t.env src in
      let rows, key =
        match src with
        | Query.Algebra.Table table -> (
            let store = t.db.Query.Db.store in
            match Relational.Instance.image store ~table with
            | Some img when img.layout = layout ->
                (lazy (Relational.Instance.values store ~table layout), img.key)
            | Some _ | None -> (Lazy.from_val (Relational.Instance.values store ~table layout), None))
        | Query.Algebra.Entity_set set ->
            (Lazy.from_val (List.map (entity_row layout) (Edm.Instance.entities t.db.Query.Db.client ~set)), None)
        | Query.Algebra.Assoc_set assoc ->
            (Lazy.from_val (List.map (Datum.Row.values layout) (Edm.Instance.links t.db.Query.Db.client ~assoc)), None)
      in
      let s = { rows; key; indexes = Array.make (Array.length layout) None } in
      Source_tbl.add t.sources src s;
      s

let rows s = Lazy.force s.rows

let bucket tbl v = match Value_tbl.find tbl v with rows -> rows | exception Not_found -> []

(* A new key is added without a search or a raise, a known one extended in
   place. *)
let push tbl v x =
  if Value_tbl.mem tbl v then Value_tbl.replace tbl v (x :: Value_tbl.find tbl v)
  else Value_tbl.add tbl v [ x ]

let build_index rows slot =
  let idx = Value_tbl.create (max 16 (List.length rows)) in
  (* Fold right so each bucket lists rows in scan order. *)
  List.fold_right
    (fun row () ->
      let v = if slot < Array.length row then row.(slot) else Datum.Value.Null in
      if not (Datum.Value.is_null v) then push idx v row)
    rows ();
  Obs.Metric.incr c_index_builds;
  idx

let index s slot =
  match s.indexes.(slot) with
  | Some idx -> idx
  | None ->
      let idx = build_index (rows s) slot in
      s.indexes.(slot) <- Some idx;
      idx

let lookup s slot v =
  if Datum.Value.is_null v then []
  else begin
    Obs.Metric.incr c_index_hits;
    match s.key with
    | Some (k, keyed) when k = slot -> (
        match Datum.Value.Map.find v keyed with rows -> rows | exception Not_found -> [])
    | Some _ | None -> bucket (index s slot) v
  end
