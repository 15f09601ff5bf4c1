let c_index_builds = Obs.Metric.counter "exec.index.builds"
let c_index_hits = Obs.Metric.counter "exec.index.hits"

module Source_key = struct
  type t = Query.Algebra.source

  let equal = Query.Algebra.equal_source
  let hash = Hashtbl.hash
end

module Source_tbl = Hashtbl.Make (Source_key)

module Value_key = struct
  type t = Datum.Value.t

  let equal a b = Datum.Value.compare a b = 0
  let hash = Hashtbl.hash
end

module Value_tbl = Hashtbl.Make (Value_key)

type index = Datum.Row.t list Value_tbl.t

type t = {
  env : Query.Env.t;
  db : Query.Eval.db;
  rows : Datum.Row.t list Source_tbl.t;
  indexes : (string, index) Hashtbl.t Source_tbl.t;
}

let make env db =
  { env; db; rows = Source_tbl.create 16; indexes = Source_tbl.create 16 }

let env t = t.env
let db t = t.db

let source_rows t src =
  match Source_tbl.find_opt t.rows src with
  | Some rows -> rows
  | None ->
      let rows = Query.Eval.rows t.env t.db (Query.Algebra.Scan src) in
      Source_tbl.add t.rows src rows;
      rows

let build_index t src col =
  let rows = source_rows t src in
  let idx = Value_tbl.create (max 16 (List.length rows)) in
  (* Fold right so each bucket lists rows in scan order. *)
  List.fold_right
    (fun row () ->
      match Datum.Row.find col row with
      | Some v when not (Datum.Value.is_null v) ->
          let bucket = Option.value ~default:[] (Value_tbl.find_opt idx v) in
          Value_tbl.replace idx v (row :: bucket)
      | Some _ | None -> ())
    rows ();
  Obs.Metric.incr c_index_builds;
  idx

let index_for t src col =
  let per_source =
    match Source_tbl.find_opt t.indexes src with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Source_tbl.add t.indexes src h;
        h
  in
  match Hashtbl.find_opt per_source col with
  | Some idx -> idx
  | None ->
      let idx = build_index t src col in
      Hashtbl.add per_source col idx;
      idx

let lookup t src col v =
  if Datum.Value.is_null v then []
  else begin
    let idx = index_for t src col in
    Obs.Metric.incr c_index_hits;
    Option.value ~default:[] (Value_tbl.find_opt idx v)
  end
