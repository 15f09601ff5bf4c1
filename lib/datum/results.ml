let ( let* ) = Result.bind

let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      all_ok f rest

let rec map_ok f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_ok f rest in
      Ok (y :: ys)

let collect f xs = Result.map List.concat (map_ok f xs)
