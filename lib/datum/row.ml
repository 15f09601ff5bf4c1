module M = Map.Make (String)

type t = Value.t M.t

let empty = M.empty
let of_list l = List.fold_left (fun m (k, v) -> M.add k v m) M.empty l
let to_list r = M.bindings r
let find c r = M.find_opt c r
let get c r = M.find c r
let add c v r = M.add c v r
let mapi f r = M.mapi f r
let columns r = List.map fst (M.bindings r)
let values layout r = Array.map (fun c -> Option.value ~default:Value.Null (M.find_opt c r)) layout

let of_values layout vs =
  let r = ref M.empty in
  Array.iteri (fun i c -> r := M.add c (Tuple.get vs i) !r) layout;
  !r

let project cols r =
  List.fold_left
    (fun acc c -> match M.find_opt c r with None -> acc | Some v -> M.add c v acc)
    M.empty cols

let union a b = M.union (fun _ va _ -> Some va) a b

let equal a b = M.equal Value.equal a b
let compare a b = M.compare Value.compare a b

let pp fmt r =
  let pp_binding fmt (c, v) = Format.fprintf fmt "%s=%a" c Value.pp v in
  Format.fprintf fmt "{%a}" (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp_binding) (to_list r)

let show r = Format.asprintf "%a" pp r
