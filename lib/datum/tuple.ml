type t = Value.t array

let get (r : t) i = if i < Array.length r then Array.unsafe_get r i else Value.Null

let compare a b =
  let n = max (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then 0 else match Value.compare (get a i) (get b i) with 0 -> go (i + 1) | c -> c
  in
  go 0

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
