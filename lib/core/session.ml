type entry = { smo : Smo.t; timing : Engine.timing }

type event =
  | Applied of entry
  | Checkpointed of string
  | Rolled_back of string

(* A state the session holds, with the planner context of its query views.
   The context is built on the state's first read and travels with it
   through undo, redo and rollback. *)
type planned = { state : State.t; planner : Exec.Planner.context Lazy.t }

module String_map = Map.Make (String)

type t = {
  past : (planned * entry) list;        (* newest first; state BEFORE the smo *)
  present : planned;
  future : (planned * entry) list;      (* undone, newest undo first *)
  checkpoints : State.t String_map.t;   (* name -> the state at the mark *)
  events : event list;                  (* newest first *)
}

let planned (state : State.t) =
  {
    state;
    planner =
      lazy
        (Exec.Planner.context state.env
           (Query.View.queries state.query_views Query.View.no_update_views));
  }

let start present =
  { past = []; present = planned present; future = []; checkpoints = String_map.empty; events = [] }

let current t = t.present.state

let apply ?jobs:_ t smo =
  match Engine.apply_timed t.present.state smo with
  | Error e -> Error e
  | Ok (next, timing) ->
      let entry = { smo; timing } in
      Ok
        {
          t with
          past = (t.present, entry) :: t.past;
          present = planned next;
          future = [];
          events = Applied entry :: t.events;
        }

let undo t =
  match t.past with
  | [] -> None
  | (before, entry) :: past ->
      Some { t with past; present = before; future = (t.present, entry) :: t.future }

let redo t =
  match t.future with
  | [] -> None
  | (after, entry) :: future ->
      Some { t with past = (t.present, entry) :: t.past; present = after; future }

let checkpoint ~name t =
  {
    t with
    checkpoints = String_map.add name t.present.state t.checkpoints;
    events = Checkpointed name :: t.events;
  }

let rollback_to ~name t =
  match String_map.find_opt name t.checkpoints with
  | None -> Error (Printf.sprintf "unknown checkpoint %s" name)
  | Some marked ->
      let rec unwind t =
        if t.present.state == marked then
          Ok { t with future = []; events = Rolled_back name :: t.events }
        else
          match undo t with
          | Some t -> unwind t
          | None -> Error (Printf.sprintf "checkpoint %s is no longer in the session's history" name)
      in
      unwind t

let query_plan t q =
  let { state = { State.env; query_views; _ }; planner } = t.present in
  Exec.Planner.plan_read (Lazy.force planner) q ~unfold:(fun q ->
      Obs.Span.with_ ~name:"query.unfold" (fun () -> Query.Unfold.splice env query_views q))

let lint t =
  let st = t.present.state in
  Lint.Analyze.run
    ~views:(st.State.query_views, st.State.update_views)
    st.State.env st.State.fragments

let log t =
  let b = Buffer.create 256 in
  List.iter
    (fun event ->
      Buffer.add_string b
        (match event with
        | Applied { smo; timing } ->
            Printf.sprintf "applied   %-40s %.2f ms (%d containment checks)\n" (Smo.show smo)
              (timing.Engine.seconds *. 1000.)
              (List.assoc
                 (Obs.Metric.counter_name Containment.Check.checks)
                 timing.Engine.containment.Obs.Metric.counters)
        | Checkpointed name -> Printf.sprintf "checkpoint %s\n" name
        | Rolled_back name -> Printf.sprintf "rollback  -> %s\n" name))
    (List.rev t.events);
  Buffer.contents b
