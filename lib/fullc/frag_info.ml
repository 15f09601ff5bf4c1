(* Shared per-fragment analysis of the view generators, the view optimizer
   and validation. *)

(* Both fragments map one entity set. *)
let same_set (f : Mapping.Fragment.t) (g : Mapping.Fragment.t) =
  match f.Mapping.Fragment.client_source, g.Mapping.Fragment.client_source with
  | Mapping.Fragment.Set a, Mapping.Fragment.Set b -> a = b
  | _, _ -> false

let tag_name i = Printf.sprintf "_from%d" (i + 1)
let local_name a i = Printf.sprintf "%s@%d" a (i + 1)

(* Column [a] of a view fused from the indexed fragments: the fragment-local
   column of each fragment that [supplies] it, renamed when there is one,
   COALESCEd when there are several, NULL when there is none. *)
let fuse_item indexed_frags ~supplies a =
  match
    List.filter_map (fun (i, f) -> if supplies f a then Some (local_name a i) else None) indexed_frags
  with
  | [] -> Query.Algebra.null_as a
  | [ s ] -> Query.Algebra.col_as s a
  | sources -> Query.Algebra.coalesce sources a
