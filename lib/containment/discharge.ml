(* Batch discharge engine for proof obligations: the calling domain proves
   a batch in emission order and stops at the first failure. *)

let batches = Obs.Metric.counter "discharge.batches"

module Rhs_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t

  let equal = Query.Algebra.equal
  let hash = Hashtbl.hash_param 40 100
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = Query.Algebra.t * Query.Algebra.t

  let equal (a1, b1) (a2, b2) = Query.Algebra.equal a1 a2 && Query.Algebra.equal b1 b2
  let hash (a, b) = Hashtbl.hash (Hashtbl.hash_param 40 100 a, Hashtbl.hash_param 40 100 b)
end)

(* What a batch keeps per schemas ([==]): the numbering of the client's
   types that every check over them shares; one [Query.Simplify.query],
   whose memo rewrites each subterm the batch's sides share once; one
   [Query.Algebra.typing], whose memo types each subterm the normalizer's
   outer-join reductions and padding ask about once; each
   distinct superset side ([Query.Algebra.equal]), simplified and
   normalized once (every AE-TPH overlap check's [π_key(σ_false T)], the FK
   checks against one referenced table); and the pairs of simplified sides
   already proven. *)
type scope = {
  types : Nf.Types.t;
  simplify : Query.Algebra.t -> Query.Algebra.t;
  infer : Query.Algebra.t -> (string list, string) result;
  supersets : (Query.Algebra.t * (Nf.output, string) result Lazy.t) Rhs_tbl.t;
  proven : unit Pair_tbl.t;
}

let scopes () =
  let scopes = ref [] in
  fun env ->
    match List.assq_opt env !scopes with
    | Some s -> s
    | None ->
        let s =
          { types = Nf.Types.create env.Query.Env.client; simplify = Query.Simplify.query env;
            infer = Query.Algebra.typing env; supersets = Rhs_tbl.create 64; proven = Pair_tbl.create 16 }
        in
        scopes := (env, s) :: !scopes;
        s

(* Both raw sides are typed first, through the batch's memo: a proof over
   an ill-typed view means nothing, so a typing [Error] fails the
   obligation.  A proof is a function of the schemas and the two simplified
   sides, so an equal pair reuses the first one's verdict; the batch stops
   at a failure, so only proven pairs are ever met again.  A normalization
   error is conservatively "not proven". *)
let prove scope env lhs rhs =
  let s = scope env in
  let ( let* ) = Result.bind in
  let* _ = s.infer lhs in
  let* rhs, n2 =
    match Rhs_tbl.find_opt s.supersets rhs with
    | Some side -> Ok side
    | None ->
        let* _ = s.infer rhs in
        let q = s.simplify rhs in
        let side = (q, lazy (Check.superset ~infer:s.infer s.types env q)) in
        Rhs_tbl.add s.supersets rhs side;
        Ok side
  in
  let lhs = s.simplify lhs in
  if Pair_tbl.mem s.proven (lhs, rhs) then Ok true
  else
    let proven = Check.prove ~infer:s.infer s.types env lhs n2 = Ok true in
    if proven then Pair_tbl.add s.proven (lhs, rhs) ();
    Ok proven

let run obls =
  Obs.Span.with_ ~name:"discharge.batch" @@ fun () ->
  Obs.Span.tag "obligations" (List.length obls);
  Obs.Metric.incr batches;
  Datum.Results.all_ok (Obligation.discharge ~prove:(prove (scopes ()))) obls
