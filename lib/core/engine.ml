let ( let* ) = Result.bind

let without_obligations r = Result.map (fun st -> (st, [])) r

let compile st = function
  | Smo.Add_entity { entity; alpha; p_ref; table; fmap } ->
      Add_entity_part.apply st ~entity ~p_ref
        ~parts:[ { part_alpha = alpha; part_cond = True; part_table = table; part_fmap = fmap } ]
  | Smo.Add_entity_part { entity; p_ref; parts } -> Add_entity_part.apply st ~entity ~p_ref ~parts
  | Smo.Add_entity_tph { entity; table; fmap; discriminator } ->
      Add_entity_tph.apply st ~entity ~table ~fmap ~discriminator
  | Smo.Add_assoc_fk { assoc; table; fmap } -> Add_assoc_fk.apply st ~assoc ~table ~fmap
  | Smo.Add_assoc_jt { assoc; table; fmap } -> Add_assoc_jt.apply st ~assoc ~table ~fmap
  | Smo.Add_property { etype; attr; target } -> Add_property.apply st ~etype ~attr ~target
  | Smo.Drop_entity { etype } -> without_obligations (Drop_entity.apply st ~etype)
  | Smo.Drop_association { assoc } -> Drop_assoc.apply st ~assoc
  | Smo.Drop_property { etype; attr } -> without_obligations (Drop_property.apply st ~etype ~attr)
  | Smo.Widen_attribute { etype; attr; domain } ->
      without_obligations (Modify_facet.widen_attribute st ~etype ~attr domain)
  | Smo.Set_multiplicity { assoc; mult } ->
      without_obligations (Modify_facet.set_multiplicity st ~assoc mult)
  | Smo.Refactor { assoc } -> Refactor.apply st ~assoc

(* The Fig. 7 step: compile the SMO's neighborhood, then prove the
   obligations it returned as one batch; the evolved state is committed only
   if every proof goes through. *)
let compile_and_prove st smo =
  let* st', obls = compile st smo in
  let* () = Containment.Discharge.run obls in
  Ok st'

(* One span per SMO, tagged with its kind — the unit of the paper's Fig. 9/10
   timings and of the bench per-phase breakdown.  The attrs (notably
   [Smo.show]) are only computed when collection is on.  Errors are tagged
   with the failing SMO's kind for structured reporting. *)
let apply st smo =
  let result =
    if not (Obs.enabled ()) then compile_and_prove st smo
    else
      Obs.Span.with_
        ~name:("smo:" ^ Smo.name smo)
        ~attrs:[ ("kind", Smo.name smo); ("smo", Smo.show smo) ]
        (fun () -> compile_and_prove st smo)
  in
  Result.map_error (Containment.Validation_error.with_smo (Smo.name smo)) result

let apply_all st smos =
  List.fold_left (fun acc smo -> Result.bind acc (fun st -> apply st smo)) (Ok st) smos

type timing = { smo : string; seconds : float; containment : Obs.Metric.snapshot }

let containment_counters =
  Containment.Check.[ checks; cases; cq_pairs; hom_steps; approximate_checks ]
  @ [ Containment.Obligation.discharged ]

let read_containment () =
  let read c = (Obs.Metric.counter_name c, Obs.Metric.value c) in
  { Obs.Metric.counters = List.map read containment_counters; gauges = [] }

let apply_timed st smo =
  let before = read_containment () in
  let t0 = Unix.gettimeofday () in
  match apply st smo with
  | Error e -> Error e
  | Ok st' ->
      let seconds = Unix.gettimeofday () -. t0 in
      let containment = Obs.Metric.diff before (read_containment ()) in
      Ok (st', { smo = Smo.name smo; seconds; containment })
