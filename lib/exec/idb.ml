let c_index_builds = Obs.Metric.counter "exec.index.builds"
let c_index_hits = Obs.Metric.counter "exec.index.hits"

module Source_key = struct
  type t = Query.Algebra.source

  let equal = Query.Algebra.equal_source
  let hash = Hashtbl.hash
end

module Source_tbl = Hashtbl.Make (Source_key)

module Value_tbl = Hashtbl.Make (struct
  type t = Datum.Value.t

  let equal a b = Datum.Value.compare a b = 0
  let hash = Hashtbl.hash
end)

type row = Datum.Value.t array
type index = row list Value_tbl.t

(* One source in its scan layout: the rows as a list in scan order, and
   the indexes built so far, one slot per layout column. *)
type source = { rows : row list; indexes : index option array }

type t = { env : Query.Env.t; db : Query.Eval.db; sources : source Source_tbl.t }

let make env db = { env; db; sources = Source_tbl.create 16 }
let db t = t.db

let scan_layout env src =
  Array.of_list
    (match src with
    | Query.Algebra.Entity_set s -> Query.Env.entity_set_columns env s
    | Query.Algebra.Assoc_set a -> Query.Env.assoc_set_columns env a
    | Query.Algebra.Table tb -> Query.Env.table_columns env tb)

let source t src =
  match Source_tbl.find t.sources src with
  | s -> s
  | exception Not_found ->
      let layout = scan_layout t.env src in
      let rows =
        match src with
        | Query.Algebra.Table table -> Relational.Instance.values t.db.Query.Eval.store ~table layout
        | Query.Algebra.Entity_set _ | Query.Algebra.Assoc_set _ ->
            List.map (Datum.Row.values layout) (Query.Eval.rows t.env t.db (Query.Algebra.Scan src))
      in
      let s = { rows; indexes = Array.make (Array.length layout) None } in
      Source_tbl.add t.sources src s;
      s

let rows s = s.rows

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
      let v = row.(slot) in
      if not (Datum.Value.is_null v) then push idx v row)
    rows ();
  Obs.Metric.incr c_index_builds;
  idx

let lookup s slot v =
  if Datum.Value.is_null v then []
  else begin
    let idx =
      match s.indexes.(slot) with
      | Some idx -> idx
      | None ->
          let idx = build_index s.rows slot in
          s.indexes.(slot) <- Some idx;
          idx
    in
    Obs.Metric.incr c_index_hits;
    bucket idx v
  end
