type kind = Inner | Left | Full

type t = { kind : kind; on : string list; left_pad : string list; right_pad : string list }

let make kind ~on ~left ~right =
  let not_on c = not (List.mem c on) in
  let left_pad = match kind with Inner -> [] | Left | Full -> List.filter not_on right in
  let right_pad = match kind with Inner | Left -> [] | Full -> List.filter not_on left in
  { kind; on; left_pad; right_pad }

let key on row =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
        match Datum.Row.find c row with
        | Some v when not (Datum.Value.is_null v) -> go (v :: acc) rest
        | Some _ | None -> None)
  in
  go [] on

let pad cols row = List.fold_left (fun r c -> Datum.Row.add c Datum.Value.Null r) row cols
