(* The containment checker's type split before it learned to look at the
   superset side: every dynamic-type variable with more than one possible
   type is split into one case per concrete type.  Tests hold
   [Containment.Nf.type_cases] (one case per class of types the superset
   side can tell apart) against it, verdict for verdict. *)

module Nf = Containment.Nf
module Names = Datum.Name_set

(* The numbers of a set's names, ascending: each number whose singleton
   the set contains, until those cover the set. *)
let numbers tys =
  let rec from i found =
    if Names.subset tys found then []
    else if Names.subset (Names.singleton i) tys then i :: from (i + 1) (Names.union found (Names.singleton i))
    else from (i + 1) found
  in
  from 0 Names.empty

(* Each variable's possible types: its [Ty_in] fact, as the numbers of the
   batch's numbering. *)
let types_of (cq : Nf.cq) =
  List.filter_map
    (function
      | Nf.Ty_in (v, tys) -> Some (v, numbers tys)
      | Nf.Rel _ | Nf.Null_c _ | Nf.Not_null_c _ -> None)
    (Nf.facts cq.Nf.store)

let type_cases ~against:(_ : Nf.cq list) (cq : Nf.cq) =
  List.fold_left
    (fun cases (v, tys) ->
      if List.length tys <= 1 then cases
      else
        List.concat_map
          (fun (cq : Nf.cq) ->
            List.map
              (fun ty -> { cq with Nf.store = Nf.refine cq.Nf.store v (Names.singleton ty) })
              tys)
          cases)
    [ cq ] (types_of cq)

let subset = Containment.Check.For_tests.subset ~split:type_cases
