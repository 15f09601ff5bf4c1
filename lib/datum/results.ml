let ( let* ) = Result.bind

(* A match rather than [let*], which would allocate a closure per element. *)
let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> all_ok f rest | Error _ as e -> e)

(* [all_ok] with each item's place in the list, from 0. *)
let all_oki f xs =
  let rec go i = function
    | [] -> Ok ()
    | x :: rest -> ( match f i x with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 0 xs

let rec map_ok f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_ok f rest in
      Ok (y :: ys)

let collect f xs = Result.map List.concat (map_ok f xs)
