module type S = sig
  type node
  type 'a table

  val create : ?size:int -> unit -> 'a table
  val fix : ?keep:(node -> bool) -> 'a table -> ((node -> 'a) -> node -> 'a) -> node -> 'a
  val size : 'a table -> int
  val mem : 'a table -> node -> bool
  val shared : node list -> node -> bool
end

module Make (T : sig
  type t

  val iter_children : (t -> unit) -> t -> unit
end) =
struct
  type node = T.t

  module H = Hashtbl.Make (struct
    type t = T.t

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  type 'a table = 'a H.t

  let create ?(size = 256) () = H.create size

  let fix ?keep tbl step =
    let rec memo x =
      match H.find tbl x with
      | r -> r
      | exception Not_found ->
          let r = step go x in
          H.add tbl x r;
          r
    and go x = match keep with Some keep when not (keep x) -> step go x | _ -> memo x in
    go

  let size = H.length
  let mem = H.mem

  let shared roots =
    let edges = H.create 256 in
    let rec visit x =
      match H.find edges x with
      | n -> H.replace edges x (n + 1)
      | exception Not_found ->
          H.add edges x 1;
          T.iter_children visit x
    in
    List.iter visit roots;
    let shared = H.create 64 in
    H.iter (fun x n -> if n > 1 then H.add shared x ()) edges;
    if H.length shared = 0 then fun _ -> false else H.mem shared
end
