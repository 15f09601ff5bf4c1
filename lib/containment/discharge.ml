(* Batch discharge engine for proof obligations: the calling domain proves
   a batch in emission order and stops at the first failure. *)

let batches = Obs.Metric.counter "discharge.batches"

module Rhs_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t

  let equal = Query.Algebra.equal
  let hash = Hashtbl.hash_param 40 100
end)

(* [Check.superset] memoized per schemas ([==]) and superset side
   ([Query.Algebra.equal]): the obligations of a batch repeat their superset
   sides (every AE-TPH overlap check's [π_key(σ_false T)], the FK checks
   against one referenced table), and each distinct one is normalized
   once per batch. *)
let memo_superset () =
  let tables = ref [] in
  fun env rhs ->
    let tbl =
      match List.assq_opt env !tables with
      | Some tbl -> tbl
      | None ->
          let tbl = Rhs_tbl.create 64 in
          tables := (env, tbl) :: !tables;
          tbl
    in
    match Rhs_tbl.find_opt tbl rhs with
    | Some n -> n
    | None ->
        let n = Check.superset env rhs in
        Rhs_tbl.add tbl rhs n;
        n

let run obls =
  Obs.Span.with_ ~name:"discharge.batch" @@ fun () ->
  Obs.Span.tag "obligations" (List.length obls);
  Obs.Metric.incr batches;
  Datum.Results.all_ok (Obligation.discharge ~superset:(memo_superset ())) obls
