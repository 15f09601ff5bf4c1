type db = Db.t = { client : Edm.Instance.t; store : Relational.Instance.t }

let client_db client = { client; store = Relational.Instance.empty }
let store_db store = { client = Edm.Instance.empty; store }

(* The set's columns are computed once per partial application, as a
   template row that each entity's row is mapped from. *)
let entity_row env set =
  let template =
    Datum.Row.of_list (List.map (fun c -> (c, Datum.Value.Null)) (Env.entity_set_columns env set))
  in
  fun (e : Edm.Instance.entity) ->
    Datum.Row.mapi
      (fun c _ ->
        if c = Env.type_column then Datum.Value.String e.etype
        else Option.value ~default:Datum.Value.Null (Datum.Row.find c e.attrs))
      template

let scan_entity_set env db set =
  List.map (entity_row env set) (Edm.Instance.entities db.client ~set)

let project_row items row =
  List.fold_left
    (fun acc item ->
      match item with
      | Algebra.Col { src; dst } ->
          let v = Option.value ~default:Datum.Value.Null (Datum.Row.find src row) in
          Datum.Row.add dst v acc
      | Algebra.Const { value; dst } -> Datum.Row.add dst value acc
      | Algebra.Coalesce { srcs; dst } ->
          let v =
            List.fold_left
              (fun acc src ->
                if Datum.Value.is_null acc then
                  Option.value ~default:Datum.Value.Null (Datum.Row.find src row)
                else acc)
              Datum.Value.Null srcs
          in
          Datum.Row.add dst v acc)
    Datum.Row.empty items

let join_match on l r =
  List.for_all
    (fun c ->
      match Datum.Row.find c l, Datum.Row.find c r with
      | Some vl, Some vr -> (not (Datum.Value.is_null vl)) && Cond.eval_cmp Cond.Eq vl vr
      | None, _ | _, None -> false)
    on

let pad cols row = List.fold_left (fun r c -> Datum.Row.add c Datum.Value.Null r) row cols

let rec rows env db q =
  match q with
  | Algebra.Scan (Entity_set s) -> scan_entity_set env db s
  | Algebra.Scan (Assoc_set a) -> Edm.Instance.links db.client ~assoc:a
  | Algebra.Scan (Table t) -> Relational.Instance.rows db.store ~table:t
  | Algebra.Select (c, q) -> List.filter (fun r -> Cond.eval env.Env.client r c) (rows env db q)
  | Algebra.Project (items, q) -> List.map (project_row items) (rows env db q)
  | Algebra.Join (kind, l, r, on) -> (
      let lr = rows env db l and rr = rows env db r in
      (* The NULL padding of an unmatched row: the other side's non-join
         columns. *)
      let padding q = lazy (List.filter (fun c -> not (List.mem c on)) (Algebra.columns env q)) in
      let pad_r = padding r and pad_l = padding l in
      let left_part =
        List.concat_map
          (fun lrow ->
            match (List.filter (join_match on lrow) rr, kind) with
            | [], (Join.Left | Join.Full) -> [ pad (Lazy.force pad_r) lrow ]
            | matches, _ -> List.map (fun rrow -> Datum.Row.union lrow rrow) matches)
          lr
      in
      match kind with
      | Join.Inner | Join.Left -> left_part
      | Join.Full ->
          left_part
          @ List.filter_map
              (fun rrow ->
                if List.exists (fun lrow -> join_match on lrow rrow) lr then None
                else Some (pad (Lazy.force pad_l) rrow))
              rr)
  | Algebra.Union_all (l, r) -> rows env db l @ rows env db r

let rows_set env db q = List.sort_uniq Datum.Row.compare (rows env db q)

let subset env db q1 q2 =
  let r2 = rows_set env db q2 in
  List.for_all (fun r -> List.exists (Datum.Row.equal r) r2) (rows_set env db q1)
