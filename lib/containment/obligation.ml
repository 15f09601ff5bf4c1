type t = {
  name : string;
  env : Query.Env.t;
  lhs : Query.Algebra.t;
  rhs : Query.Algebra.t;
  on_fail : string;
}

let make ~name ~env ~lhs ~rhs ~on_fail = { name; env; lhs; rhs; on_fail }

let discharged = Obs.Metric.counter "containment.obligations"

let name t = t.name
let on_fail t = t.on_fail

(* Every obligation funnels through here, whichever discharge worker proves
   it, so the span and counter accounting is uniform.  A normalization error
   counts as "not proven", the conservative collapse validation relies on. *)
let discharge ?superset t =
  Obs.Span.with_ ~name:"containment.obligation" ~attrs:[ ("obligation", t.name) ]
  @@ fun () ->
  Obs.Metric.incr discharged;
  match Check.subset ?superset t.env t.lhs t.rhs with
  | Ok true -> Ok ()
  | Ok false | Error _ -> Error (Validation_error.of_obligation ~name:t.name t.on_fail)
