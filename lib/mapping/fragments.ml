type t = Fragment.t list

let empty = []
let of_list l = l
let to_list t = t
let add f t = t @ [ f ]
let remove f t = List.filter (fun g -> not (Fragment.equal f g)) t
let size = List.length
let on_table t table = List.filter (fun (f : Fragment.t) -> f.table = table) t

let of_set t set =
  List.filter
    (fun (f : Fragment.t) ->
      match f.client_source with Fragment.Set s -> String.equal s set | Fragment.Assoc _ -> false)
    t

let of_assoc t a =
  List.filter
    (fun (f : Fragment.t) ->
      match f.client_source with Fragment.Assoc b -> String.equal b a | Fragment.Set _ -> false)
    t

let tables t = List.sort_uniq String.compare (List.map (fun (f : Fragment.t) -> f.table) t)
let map f t = List.map f t

let column_used t ~table col =
  List.exists (fun f -> (f : Fragment.t).table = table && Fragment.mem_col f col) t

let related env client store t = List.for_all (Fragment.holds env client store) t

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let well_formed env t =
  let* () =
    List.fold_left
      (fun acc f -> Result.bind acc (fun () -> Fragment.well_formed env f))
      (Ok ()) t
  in
  let assoc_names =
    List.filter_map
      (fun (f : Fragment.t) ->
        match f.client_source with Fragment.Assoc a -> Some a | Fragment.Set _ -> None)
      t
  in
  let sorted = List.sort String.compare assoc_names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  match dup sorted with
  | Some a -> fail "association set %s is mentioned by more than one fragment" a
  | None -> Ok ()

let equal a b =
  List.length a = List.length b
  && List.for_all (fun f -> List.exists (Fragment.equal f) b) a
  && List.for_all (fun f -> List.exists (Fragment.equal f) a) b

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list (fun fmt f -> Format.fprintf fmt "• %a" Fragment.pp f))
    t

let show t = Format.asprintf "%a" pp t
