type t = {
  name : string Lazy.t;
  env : Query.Env.t;
  lhs : Query.Algebra.t;
  rhs : Query.Algebra.t;
  on_fail : string Lazy.t;
}

let make ~name ~env ~lhs ~rhs ~on_fail = { name; env; lhs; rhs; on_fail }

let discharged = Obs.Metric.counter "containment.obligations"

let name t = Lazy.force t.name
let on_fail t = Lazy.force t.on_fail

(* Every obligation funnels through here, so the span and counter accounting
   is uniform.  "Not proven" fails with the obligation's message, an
   [Error] with the prover's.  The name is forced only for a recorded span
   or a failure, the message only for a failure. *)
let discharge ~prove t =
  let attrs = if Obs.enabled () then [ ("obligation", name t) ] else [] in
  Obs.Span.with_ ~name:"containment.obligation" ~attrs @@ fun () ->
  Obs.Metric.incr discharged;
  match prove t.env t.lhs t.rhs with
  | Ok true -> Ok ()
  | Ok false -> Error (Validation_error.of_obligation ~name:(name t) (on_fail t))
  | Error e -> Error (Validation_error.of_obligation ~name:(name t) e)
