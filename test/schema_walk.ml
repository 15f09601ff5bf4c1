(* The hierarchy queries of [Edm.Schema] recomputed from scratch, by the
   walk [descendants] made before the schema kept a child index: one pass
   over [types] builds a parent -> children table.  [check] compares the
   index-backed accessors with it at every type. *)

let by_parent schema =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Edm.Entity_type.t) ->
      match e.parent with Some p -> Hashtbl.add tbl p e.name | None -> ())
    (Edm.Schema.types schema);
  tbl

(* [types] is in ascending name order and [find_all] returns the newest
   first, so reversing gives sorted children. *)
let children tbl name = List.rev (Hashtbl.find_all tbl name)

let descendants tbl name =
  let rec walk n = List.concat_map (fun c -> c :: walk c) (children tbl n) in
  walk name

let check tag schema =
  let tbl = by_parent schema in
  let slist = Alcotest.(list string) in
  List.iter
    (fun (e : Edm.Entity_type.t) ->
      let n = e.name in
      Alcotest.check slist (tag ^ ": children of " ^ n) (children tbl n) (Edm.Schema.children schema n);
      Alcotest.check slist (tag ^ ": descendants of " ^ n) (descendants tbl n)
        (Edm.Schema.descendants schema n);
      Alcotest.check slist (tag ^ ": subtypes of " ^ n) (n :: descendants tbl n)
        (Edm.Schema.subtypes schema n))
    (Edm.Schema.types schema)
