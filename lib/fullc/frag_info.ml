(* Shared per-fragment analysis used by both view generators. *)

let tag_name i = Printf.sprintf "_from%d" (i + 1)
let local_name a i = Printf.sprintf "%s@%d" a (i + 1)

(* Column sources available for reconstructing a client attribute [a] from
   the indexed fragments: fragments that project it, or that force it to a
   constant. *)
let sources_for indexed_frags a ~attr_of ~cond_of =
  List.filter_map
    (fun (i, f) ->
      if List.mem a (attr_of f) then Some (local_name a i)
      else if List.mem_assoc a (Mapping.Coverage.determined_constants (cond_of f)) then
        Some (local_name a i)
      else None)
    indexed_frags

let fuse_item sources a =
  match sources with
  | [] -> Query.Algebra.null_as a
  | [ s ] -> Query.Algebra.col_as s a
  | _ :: _ :: _ -> Query.Algebra.coalesce sources a
