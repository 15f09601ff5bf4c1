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
let feed_add src row n feed =
  let d = Option.value ~default:Multiset.empty (Src_map.find_opt src feed) in
  Src_map.add src (Multiset.add row n d) feed

(* An entity's key in its base image: the root's key columns, a column the
   entity lacks bound to [NULL]. *)
let entity_key keys (e : Edm.Instance.entity) = Datum.Row.of_values keys (Datum.Row.values keys e.attrs)

(* [Row_map.update] returns its map physically unchanged when the key is
   bound and [f] keeps the binding, so one descent both finds a duplicate
   and adds a new key. *)
let enter key row base ~dup =
  let base' = Row_map.update key (function None -> Some row | bound -> bound) base in
  if base' == base then dup key else Ok base'

let dup_key set key = fail "insert: key %s already present in %s" (Datum.Row.show key) set
let dup_link assoc _ = fail "link already present in %s" assoc

(* Take a keyed row out of its base image and feed the stored array back. *)
let remove src key ~missing (st, feed) =
  let base = State.base st src in
  match Row_map.find_opt key base with
  | None -> missing ()
  | Some row -> Ok (State.set_base src (Row_map.remove key base) st, feed_add src row (-1) feed)

let slot layout c = Option.get (Array.find_index (String.equal c) layout)

(* Sequentially turn ops into signed base-row deltas, updating the keyed base
   images as we go so intra-batch guards (duplicate key, missing key,
   immutable key attribute, duplicate link) see intermediate states.  Each
   row is built once, in its source's scan layout, and the base image keeps
   the array it feeds.  The whole-instance checks of [Dml.Delta.apply] —
   association participation on delete, full conformance — are deliberately
   not re-run here: they cost O(instance), which is exactly what this path
   avoids.  Callers wanting those guarantees validate the delta first (as
   [Dml.Translate.translate] does) or accept the trade. *)
let feed_op (plan : Plan.t) (st, feed) op =
  let schema = plan.Plan.env.Query.Env.client in
  match op with
  | Insert_entity { set; entity } -> (
      match Edm.Schema.set_root schema set with
      | None -> fail "ivm: unknown entity set %s" set
      | Some root ->
          let src = Query.Algebra.Entity_set set in
          let row = Exec.Idb.entity_row (plan.Plan.scan_layout src) entity in
          let key = entity_key (Array.of_list (Edm.Schema.key_of schema root)) entity in
          let* base = enter key row (State.base st src) ~dup:(dup_key set) in
          Ok (State.set_base src base st, feed_add src row 1 feed))
  | Delete_entity { set; key } ->
      remove (Query.Algebra.Entity_set set) key (st, feed) ~missing:(fun () ->
          fail "delete: no entity with key %s in %s" (Datum.Row.show key) set)
  | Update_entity { set; key; changes } -> (
      let src = Query.Algebra.Entity_set set in
      let base = State.base st src in
      match Row_map.find_opt key base with
      | None -> fail "update: no entity with key %s in %s" (Datum.Row.show key) set
      | Some old_row ->
          let layout = plan.Plan.scan_layout src in
          let* etype =
            match old_row.(slot layout Query.Env.type_column) with
            | Datum.Value.String ty -> Ok ty
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
          let new_row = Array.copy old_row in
          List.iter (fun (a, v) -> new_row.(slot layout a) <- v) changes;
          Ok
            ( State.set_base src (Row_map.add key new_row base) st,
              feed_add src old_row (-1) (feed_add src new_row 1 feed) ))
  | Insert_link { assoc; link } ->
      let* () =
        match Edm.Schema.find_association schema assoc with
        | Some _ -> Ok ()
        | None -> fail "unknown association %s" assoc
      in
      let src = Query.Algebra.Assoc_set assoc in
      let row = Datum.Row.values (plan.Plan.scan_layout src) link in
      let* base = enter link row (State.base st src) ~dup:(dup_link assoc) in
      Ok (State.set_base src base st, feed_add src row 1 feed)
  | Delete_link { assoc; link } ->
      remove (Query.Algebra.Assoc_set assoc) link (st, feed) ~missing:(fun () ->
          fail "unlink: no such tuple in %s" assoc)

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

(* [init]'s guard walk over one source: build each item's row and add it
   to the base image under [key item], failing with [dup] on a key already
   there, and keep the rows as [Engine.init]'s input. *)
let fill src ~key ~row ~dup items (st, rows) =
  let* base, rs =
    List.fold_left
      (fun acc item ->
        let* base, rs = acc in
        let r = row item in
        let* base = enter (key item) r base ~dup in
        Ok (base, r :: rs))
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
        let src = Query.Algebra.Entity_set set in
        fill src
          ~key:(entity_key (Array.of_list (Edm.Schema.key_of schema root)))
          ~row:(Exec.Idb.entity_row (plan.Plan.scan_layout src))
          ~dup:(dup_key set) (Edm.Instance.entities client ~set) acc
      in
      let associations acc (a : Edm.Association.t) =
        let* acc = acc in
        let src = Query.Algebra.Assoc_set a.name in
        fill src ~key:Fun.id
          ~row:(Datum.Row.values (plan.Plan.scan_layout src))
          ~dup:(dup_link a.name) (Edm.Instance.links client ~assoc:a.name) acc
      in
      let* st, rows =
        List.fold_left entity_sets (Ok (State.empty plan, Src_map.empty)) (Edm.Schema.entity_sets schema)
      in
      let* st, rows = List.fold_left associations (Ok (st, rows)) (Edm.Schema.associations schema) in
      Ok (Engine.init plan st ~rows))
