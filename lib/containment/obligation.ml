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

(* Every obligation — whether discharged sequentially or by a parallel
   worker — funnels through here, so the span and counter accounting is uniform
   across both paths.  A normalization error counts as "not proven", the
   conservative collapse validation relies on. *)
let discharge ~subset t =
  Obs.Span.with_ ~name:"containment.obligation" ~attrs:[ ("obligation", t.name) ]
  @@ fun () ->
  Obs.Metric.incr discharged;
  match subset t.env t.lhs t.rhs with
  | Ok true -> Ok ()
  | Ok false | Error _ -> Error (Validation_error.of_obligation ~name:t.name t.on_fail)
