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

module Key_tbl = Hashtbl.Make (struct
  type t = Datum.Value.t list

  let equal a b = List.compare Datum.Value.compare a b = 0
  let hash = Hashtbl.hash
end)

let hash j lrows rrows =
  let rarr = Array.of_list rrows in
  let matched = Array.make (Array.length rarr) false in
  let tbl = Key_tbl.create (max 16 (Array.length rarr)) in
  (* Build in reverse index order so each bucket lists rows in input order. *)
  for i = Array.length rarr - 1 downto 0 do
    match key j.on rarr.(i) with
    | Some k ->
        let bucket = Option.value ~default:[] (Key_tbl.find_opt tbl k) in
        Key_tbl.replace tbl k ((i, rarr.(i)) :: bucket)
    | None -> ()
  done;
  let probe lrow = match key j.on lrow with Some k -> Key_tbl.find_opt tbl k | None -> None in
  let pairs = ref 0 in
  let out =
    List.concat_map
      (fun lrow ->
        match probe lrow with
        | Some bucket ->
            pairs := !pairs + List.length bucket;
            List.map
              (fun (i, rrow) ->
                matched.(i) <- true;
                Datum.Row.union lrow rrow)
              bucket
        | None -> ( match j.kind with Inner -> [] | Left | Full -> [ pad j.left_pad lrow ]))
      lrows
  in
  match j.kind with
  | Inner | Left -> (out, !pairs)
  | Full ->
      let right_unmatched = ref [] in
      for i = Array.length rarr - 1 downto 0 do
        if not matched.(i) then right_unmatched := pad j.right_pad rarr.(i) :: !right_unmatched
      done;
      (out @ !right_unmatched, !pairs)
