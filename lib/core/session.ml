type entry = { smo : Smo.t; timing : Engine.timing }

type event =
  | Applied of entry
  | Checkpointed of string
  | Rolled_back of string

(* One planner context per generation of the query views (and the
   environment they are typed in).  Keeping a bounded list of recent
   generations (instead of only the newest) means undo/redo and rollback
   land back on a planned generation. *)
type generation = {
  gen_env : Query.Env.t;
  gen_views : Query.View.query_views;
  planner : Exec.Planner.context;
}

type exec_cache = generation list ref

type t = {
  initial : State.t;
  past : (State.t * entry) list;        (* newest first; state BEFORE the smo *)
  depth : int;                          (* length of [past], tracked incrementally *)
  present : State.t;
  future : (State.t * entry) list;      (* undone, newest undo first *)
  checkpoints : (string * int) list;    (* name -> [depth] at the mark *)
  events : event list;                  (* newest first *)
  exec_cache : exec_cache;              (* shared across derived sessions *)
}

let start present =
  { initial = present; past = []; depth = 0; present; future = []; checkpoints = [];
    events = []; exec_cache = ref [] }

let current t = t.present

let apply ?jobs t smo =
  match Engine.apply_timed ?jobs t.present smo with
  | Error e -> Error e
  | Ok (next, timing) ->
      let entry = { smo; timing } in
      Ok
        {
          t with
          past = (t.present, entry) :: t.past;
          depth = t.depth + 1;
          present = next;
          future = [];
          events = Applied entry :: t.events;
        }

let undo t =
  match t.past with
  | [] -> None
  | (before, entry) :: past ->
      Some
        {
          t with
          past;
          depth = t.depth - 1;
          present = before;
          future = (t.present, entry) :: t.future;
        }

let redo t =
  match t.future with
  | [] -> None
  | (after, entry) :: future ->
      Some
        { t with past = (t.present, entry) :: t.past; depth = t.depth + 1; present = after; future }

let history t = List.rev_map (fun (_, e) -> e) t.past

let checkpoint ~name t =
  {
    t with
    checkpoints = (name, t.depth) :: List.remove_assoc name t.checkpoints;
    events = Checkpointed name :: t.events;
  }

let rollback_to ~name t =
  match List.assoc_opt name t.checkpoints with
  | None -> Error (Printf.sprintf "unknown checkpoint %s" name)
  | Some depth ->
      let rec unwind t =
        if t.depth <= depth then t
        else match undo t with Some t -> unwind t | None -> t
      in
      let t = unwind t in
      Ok { t with future = []; events = Rolled_back name :: t.events }

let c_plan_hit = Obs.Metric.counter "exec.plan.cache.hit"
let c_plan_miss = Obs.Metric.counter "exec.plan.cache.miss"
let max_exec_generations = 8

let same_query_views a b =
  a == b
  || (let eq veq = List.equal (fun (na, va) (nb, vb) -> String.equal na nb && veq va vb) in
      eq Query.View.equal (Query.View.entity_view_bindings a) (Query.View.entity_view_bindings b)
      && eq Query.Algebra.equal (Query.View.assoc_view_bindings a) (Query.View.assoc_view_bindings b))

let generation t =
  let { State.env; query_views = qv; _ } = t.present in
  let gens = !(t.exec_cache) in
  match List.find_opt (fun g -> g.gen_env == env && same_query_views g.gen_views qv) gens with
  | Some g ->
      Obs.Metric.incr c_plan_hit;
      if List.hd gens != g then t.exec_cache := g :: List.filter (fun g' -> g' != g) gens;
      g
  | None ->
      Obs.Metric.incr c_plan_miss;
      let views = Query.View.queries qv Query.View.no_update_views in
      let g = { gen_env = env; gen_views = qv; planner = Exec.Planner.context env views } in
      t.exec_cache := List.filteri (fun i _ -> i < max_exec_generations) (g :: gens);
      g

let query_plan t q =
  let g = generation t in
  Result.bind
    (Obs.Span.with_ ~name:"query.unfold" (fun () -> Query.Unfold.splice g.gen_env g.gen_views q))
    (Exec.Planner.plan_in g.planner)

let lint t =
  let st = t.present in
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
