module Row_map = Map.Make (Datum.Row)
module Group_map = Multiset.Row_map
module Int_map = Map.Make (Int)
module String_map = Map.Make (String)
module Src_map = Plan.Src_map
module Value_map = Datum.Value.Map

type join_state = { lefts : Multiset.t Group_map.t; rights : Multiset.t Group_map.t }

type t = {
  bases : Datum.Tuple.t Row_map.t Src_map.t;
  joins : join_state Int_map.t String_map.t;
  store : Relational.Instance.t;
}

let empty_join = { lefts = Group_map.empty; rights = Group_map.empty }

let empty (plan : Plan.t) =
  {
    bases = Src_map.empty;
    joins = String_map.empty;
    store =
      List.fold_left
        (fun store (tp : Plan.table_plan) ->
          Relational.Instance.set_image ~table:tp.Plan.table
            { Relational.Instance.layout = tp.Plan.layout;
              counts = Multiset.empty;
              key = Option.map (fun slot -> (slot, Value_map.empty)) tp.Plan.key }
            store)
        Relational.Instance.empty plan.Plan.tables;
  }

let base t src = Option.value ~default:Row_map.empty (Src_map.find_opt src t.bases)
let set_base src b t = { t with bases = Src_map.add src b t.bases }
let join joins id = Option.value ~default:empty_join (Int_map.find_opt id joins)
let joins t name = Option.value ~default:Int_map.empty (String_map.find_opt name t.joins)

let image t name =
  match Relational.Instance.image t.store ~table:name with Some img -> img | None -> raise Not_found

(* A row entering ([n > 0]) or leaving its key's rows, which stay
   ascending; a [NULL] key is in no map. *)
let rekey slot r n keyed =
  let v = Datum.Tuple.get r slot in
  if Datum.Value.is_null v then keyed
  else
    Value_map.update v
      (fun rows ->
        let rows = Option.value ~default:[] rows in
        let rows =
          if n > 0 then List.merge Datum.Tuple.compare [ r ] rows
          else List.filter (fun r' -> Datum.Tuple.compare r r' <> 0) rows
        in
        if rows = [] then None else Some rows)
      keyed

let set_table name joins ~counts ~out t =
  let t = { t with joins = String_map.add name joins t.joins } in
  let img = image t name in
  if counts == img.Relational.Instance.counts then t
  else
    let key =
      Option.map (fun (slot, keyed) -> (slot, Multiset.fold (rekey slot) out keyed)) img.key
    in
    { t with store = Relational.Instance.set_image ~table:name { img with counts; key } t.store }

(* One fold counts each row and, on its first occurrence, enters it in the
   key map. *)
let init_table name joins rows t =
  let img = image t name in
  let fresh = ref false in
  let count = function None -> fresh := true; Some 1 | Some n -> Some (n + 1) in
  let counts, key =
    List.fold_left
      (fun (counts, key) r ->
        fresh := false;
        let counts = Multiset.Row_map.update r count counts in
        ( counts,
          match key with
          | Some (slot, keyed) when !fresh -> Some (slot, rekey slot r 1 keyed)
          | key -> key ))
      (img.Relational.Instance.counts, img.key) rows
  in
  { t with
    joins = String_map.add name joins t.joins;
    store = Relational.Instance.set_image ~table:name { img with counts; key } t.store }

let store t = t.store
