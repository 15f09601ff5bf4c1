(* The [session] workload: one loaded state kept in memory.  Every op
   checkpoints, applies a seeded permutation of the whole suite (each SMO
   validated), undoes and redoes the last SMO, and rolls back to the
   checkpoint, so every op starts from the same state and does the same nine
   SMOs in its own order.  No persistence, no lint. *)

open Common

let run ~rng ~ops p st =
  let sess = ref (Core.Session.start st) in
  for i = 0 to ops - 1 do
    let r = p.rec_ in
    let script = Suite.permutation rng in
    let name = Printf.sprintf "op%d" i in
    let base = Core.Session.current !sess in
    let outcome =
      timed_op p (String.concat "," (List.map fst script)) @@ fun () ->
      let s = call r "core.checkpoint" (fun () -> Core.Session.checkpoint ~name !sess) in
      let rec apply s verdicts = function
        | [] -> (s, List.rev verdicts)
        | (label, smo) :: rest -> (
            match call r "core.apply" (fun () -> Core.Session.apply ~jobs:1 s smo) with
            | Ok s' -> apply s' ((label, Ok ()) :: verdicts) rest
            | Error e -> apply s ((label, Error e) :: verdicts) rest)
      in
      let applied, verdicts = apply s [] script in
      let redone =
        match call r "core.undo" (fun () -> Core.Session.undo applied) with
        | None -> None
        | Some u -> call r "core.redo" (fun () -> Core.Session.redo u)
      in
      let rolled = call r "core.rollback" (fun () -> Core.Session.rollback_to ~name applied) in
      (applied, verdicts, redone, rolled)
    in
    (* Checks, outside the timed region. *)
    let applied, verdicts, redone, rolled = outcome in
    let applies = samples r "core.apply" in
    List.iteri
      (fun k (label, _) ->
        let ms = List.nth applies (List.length verdicts - 1 - k) in
        add_sample r ("core.smo." ^ label) ms;
        p.write_ms <- ms :: p.write_ms)
      verdicts;
    let errors =
      List.concat
        [
          List.filter_map
            (fun (label, v) ->
              match Suite.check_verdict label v with Ok () -> None | Error e -> Some e)
            verdicts;
          (match redone with
          | Some s when Core.Session.current s == Core.Session.current applied -> []
          | _ -> [ name ^ ": undo/redo did not restore the last SMO's state" ]);
          (match rolled with
          | Ok s when Core.Session.current s == base -> sess := s; []
          | Ok _ -> [ name ^ ": rollback did not return the checkpointed state" ]
          | Error e -> [ name ^ ": rollback failed: " ^ e ]);
        ]
    in
    checked p errors
  done
