module Row_map = Datum.Tuple.Map

type t = int Row_map.t

let empty = Row_map.empty
let is_empty = Row_map.is_empty

(* One descent per row: a row compare can walk dozens of columns. *)
let add r n t =
  if n = 0 then t
  else Row_map.update r (fun c -> match Option.value ~default:0 c + n with 0 -> None | c -> Some c) t

let sum a b = Row_map.union (fun _ m n -> match m + n with 0 -> None | c -> Some c) a b
let diff a b = Row_map.fold (fun r n acc -> add r (-n) acc) b a
let fold f t acc = Row_map.fold f t acc
let filter p t = Row_map.filter (fun r _ -> p r) t
let map_rows f t = Row_map.fold (fun r n acc -> add (f r) n acc) t empty
let total t = Row_map.fold (fun _ n acc -> acc + abs n) t 0
let cardinal = Row_map.cardinal

let apply_distinct ~base ~delta =
  Row_map.fold
    (fun r n (base, set_delta) ->
      let old_c = Option.value ~default:0 (Row_map.find_opt r base) in
      let new_c = old_c + n in
      let base = if new_c = 0 then Row_map.remove r base else Row_map.add r new_c base in
      let set_delta =
        if old_c > 0 && new_c <= 0 then add r (-1) set_delta
        else if old_c <= 0 && new_c > 0 then add r 1 set_delta
        else set_delta
      in
      (base, set_delta))
    delta (base, empty)
