type numbering = (string, int) Hashtbl.t

let numbering size = Hashtbl.create size

let number n c =
  match Hashtbl.find n c with
  | i -> i
  | exception Not_found ->
      let i = Hashtbl.length n in
      Hashtbl.add n c i;
      i

let find n c = Hashtbl.find_opt n c

type t = int array

let empty = [||]
let word i = i / Sys.int_size
let bit i = 1 lsl (i mod Sys.int_size)
let get s k = if k < Array.length s then s.(k) else 0

let singleton i =
  let s = Array.make (word i + 1) 0 in
  s.(word i) <- bit i;
  s

let of_iter n iter x =
  let top = ref (-1) in
  iter (fun c -> top := Int.max !top (number n c)) x;
  if !top < 0 then empty
  else
    let s = Array.make (word !top + 1) 0 in
    iter
      (fun c ->
        let i = number n c in
        s.(word i) <- s.(word i) lor bit i)
      x;
    s

let of_list n l = of_iter n List.iter l

let mem_number s i = get s (word i) land bit i <> 0
let mem n s c = match Hashtbl.find n c with i -> mem_number s i | exception Not_found -> false

let is_empty s = Array.length s = 0

let at_least_two s =
  let rec from k seen =
    k < Array.length s
    &&
    let w = s.(k) in
    if w = 0 then from (k + 1) seen else seen || w land (w - 1) <> 0 || from (k + 1) true
  in
  from 0 false

let subset a b =
  let rec from k = k = Array.length a || (a.(k) land lnot (get b k) = 0 && from (k + 1)) in
  Array.length a <= Array.length b && from 0

let union a b =
  if subset a b then b
  else if subset b a then a
  else Array.init (Int.max (Array.length a) (Array.length b)) (fun k -> get a k lor get b k)

(* The words [f k] for [k] below [len], without the zero words on top. *)
let trimmed len f =
  let rec top k = if k < 0 || f k <> 0 then k else top (k - 1) in
  let t = top (len - 1) in
  if t < 0 then empty else Array.init (t + 1) f

let inter a b =
  if subset a b then a
  else if subset b a then b
  else trimmed (Int.min (Array.length a) (Array.length b)) (fun k -> a.(k) land b.(k))

let diff a b =
  let rec disjoint k =
    k = Array.length a || k = Array.length b || (a.(k) land b.(k) = 0 && disjoint (k + 1))
  in
  if disjoint 0 then a else trimmed (Array.length a) (fun k -> a.(k) land lnot (get b k))

let compare a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c
  else
    let rec from k =
      if k = Array.length a then 0
      else
        let c = Int.compare a.(k) b.(k) in
        if c <> 0 then c else from (k + 1)
    in
    from 0

(* Names are read back by a walk of the numbering: only printing, tests
   and a lint finding do it. *)
let elements n s =
  Hashtbl.fold (fun c i acc -> if mem_number s i then (i, c) :: acc else acc) n []
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.map snd

let iter_missing n f a b = if not (subset a b) then List.iter f (elements n (diff a b))
