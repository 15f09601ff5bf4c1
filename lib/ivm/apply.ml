module Row_map = State.Row_map
module Src_map = Plan.Src_map

type op =
  | Insert_entity of { set : string; entity : Edm.Instance.entity }
  | Delete_entity of { set : string; key : Datum.Row.t }
  | Update_entity of { set : string; key : Datum.Row.t; changes : (string * Datum.Value.t) list }
  | Insert_link of { assoc : string; link : Datum.Row.t }
  | Delete_link of { assoc : string; link : Datum.Row.t }

type table_delta = { table : string; removed : Datum.Row.t list; added : Datum.Row.t list }

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

(* Rows enter the engine here, in their source's scan layout. *)
let feed_add plan src row n feed =
  let d = Option.value ~default:Multiset.empty (Src_map.find_opt src feed) in
  Src_map.add src (Multiset.add (Plan.scan_row plan src row) n d) feed

let entity_key schema ~set row =
  match Edm.Schema.set_root schema set with
  | None -> fail "ivm: unknown entity set %s" set
  | Some root -> Ok (Datum.Row.project (Edm.Schema.key_of schema root) row)

(* Sequentially turn ops into signed base-row deltas, updating the keyed base
   images as we go so intra-batch guards (duplicate key, missing key,
   immutable key attribute, duplicate link) see intermediate states.  The
   whole-instance checks of [Dml.Delta.apply] — association participation on
   delete, full conformance — are deliberately not re-run here: they cost
   O(instance), which is exactly what this path avoids.  Callers wanting
   those guarantees validate the delta first (as [Dml.Translate.translate]
   does) or accept the trade. *)
let feed_op (plan : Plan.t) (st, feed) op =
  let schema = plan.Plan.env.Query.Env.client in
  match op with
  | Insert_entity { set; entity } ->
      let row = Query.Eval.entity_row plan.Plan.env set entity in
      let* key = entity_key schema ~set row in
      let src = Query.Algebra.Entity_set set in
      let base = State.base st src in
      if Row_map.mem key base then
        fail "insert: key %s already present in %s" (Datum.Row.show key) set
      else
        Ok (State.set_base src (Row_map.add key row base) st, feed_add plan src row 1 feed)
  | Delete_entity { set; key } -> (
      let src = Query.Algebra.Entity_set set in
      let base = State.base st src in
      match Row_map.find_opt key base with
      | None -> fail "delete: no entity with key %s in %s" (Datum.Row.show key) set
      | Some row ->
          Ok (State.set_base src (Row_map.remove key base) st, feed_add plan src row (-1) feed))
  | Update_entity { set; key; changes } -> (
      let src = Query.Algebra.Entity_set set in
      let base = State.base st src in
      match Row_map.find_opt key base with
      | None -> fail "update: no entity with key %s in %s" (Datum.Row.show key) set
      | Some old_row ->
          let* etype =
            match Datum.Row.find Query.Env.type_column old_row with
            | Some (Datum.Value.String ty) -> Ok ty
            | _ -> fail "ivm: base row in %s lacks a dynamic type" set
          in
          let keyattrs = Edm.Schema.key_of schema etype in
          let* () =
            match List.find_opt (fun (a, _) -> List.mem a keyattrs) changes with
            | Some (a, _) -> fail "update: key attribute %s is immutable" a
            | None -> Ok ()
          in
          let* () =
            match
              List.find_opt (fun (a, _) -> Edm.Schema.attribute_domain schema etype a = None) changes
            with
            | Some (a, _) -> fail "update: %s has no attribute %s" etype a
            | None -> Ok ()
          in
          let new_row =
            List.fold_left (fun r (a, v) -> Datum.Row.add a v r) old_row changes
          in
          Ok
            ( State.set_base src (Row_map.add key new_row base) st,
              feed_add plan src old_row (-1) (feed_add plan src new_row 1 feed) ))
  | Insert_link { assoc; link } ->
      let* () =
        match Edm.Schema.find_association schema assoc with
        | Some _ -> Ok ()
        | None -> fail "unknown association %s" assoc
      in
      let src = Query.Algebra.Assoc_set assoc in
      let base = State.base st src in
      if Row_map.mem link base then fail "link already present in %s" assoc
      else Ok (State.set_base src (Row_map.add link link base) st, feed_add plan src link 1 feed)
  | Delete_link { assoc; link } ->
      let src = Query.Algebra.Assoc_set assoc in
      let base = State.base st src in
      if not (Row_map.mem link base) then fail "unlink: no such tuple in %s" assoc
      else Ok (State.set_base src (Row_map.remove link base) st, feed_add plan src link (-1) feed)

(* The changed rows, and only they, become [Datum.Row.t]s. *)
let to_table_deltas st deltas =
  List.map
    (fun (table, d) ->
      let layout = (State.image st table).Relational.Instance.layout in
      let rows sign =
        Multiset.fold (fun r n acc -> if sign n then Datum.Row.of_values layout r :: acc else acc) d []
        |> List.sort Datum.Row.compare
      in
      { table; removed = rows (fun n -> n < 0); added = rows (fun n -> n > 0) })
    deltas

let feed (plan : Plan.t) st ops =
  List.fold_left
    (fun acc op -> Result.bind acc (fun sf -> feed_op plan sf op))
    (Ok (st, Src_map.empty))
    ops

let run (plan : Plan.t) st ops =
  let* st, feed = feed plan st ops in
  let st, deltas = Engine.propagate plan st ~feed in
  Ok (to_table_deltas st deltas, st)

let step plan st ops =
  Obs.Span.with_ ~name:"ivm.step" (fun () ->
      Obs.Span.tag "ops" (List.length ops);
      run plan st ops)

(* [init]'s guard walk over one source: add each row to the base image under
   [key row], failing with [dup] on a key already there, and keep the rows,
   in the source's scan layout, as [Engine.init]'s input.  [Row_map.update]
   returns its map physically unchanged when the key is bound and [f] keeps
   the binding, so one descent both finds a duplicate and adds a new key. *)
let fill plan src ~key ~dup items (st, rows) =
  let enter = Plan.scan_row plan src in
  let* base, rs =
    List.fold_left
      (fun acc row ->
        let* base, rs = acc in
        let k = key row in
        let base' = Row_map.update k (function None -> Some row | bound -> bound) base in
        if base' == base then dup k else Ok (base', enter row :: rs))
      (Ok (State.base st src, []))
      items
  in
  Ok (State.set_base src base st, Src_map.add src rs rows)

(* The guards a step from the empty state applies to a batch inserting the
   whole instance, in that batch's order: entity sets in schema order, then
   associations.  The walk visits only the schema's own sets and
   associations, so of those guards only the duplicate-key and
   duplicate-link ones can fail. *)
let init (plan : Plan.t) client =
  Obs.Span.with_ ~name:"ivm.init" (fun () ->
      let schema = plan.Plan.env.Query.Env.client in
      let entity_sets acc (set, root) =
        let* acc = acc in
        let row = Query.Eval.entity_row plan.Plan.env set in
        let key = Datum.Row.project (Edm.Schema.key_of schema root) in
        fill plan (Query.Algebra.Entity_set set) ~key
          ~dup:(fun k -> fail "insert: key %s already present in %s" (Datum.Row.show k) set)
          (List.map row (Edm.Instance.entities client ~set))
          acc
      in
      let associations acc (a : Edm.Association.t) =
        let* acc = acc in
        fill plan (Query.Algebra.Assoc_set a.name) ~key:Fun.id
          ~dup:(fun _ -> fail "link already present in %s" a.name)
          (Edm.Instance.links client ~assoc:a.name)
          acc
      in
      let* st, rows =
        List.fold_left entity_sets (Ok (State.empty plan, Src_map.empty)) (Edm.Schema.entity_sets schema)
      in
      let* st, rows = List.fold_left associations (Ok (st, rows)) (Edm.Schema.associations schema) in
      Ok (Engine.init plan st ~rows))
