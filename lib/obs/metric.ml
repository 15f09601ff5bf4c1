type counter = { cname : string; cell : int Atomic.t }
type gauge = { gname : string; gcell : float Atomic.t }

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let registered tbl make name =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt tbl name with
    | Some m -> m
    | None ->
        let m = make name in
        Hashtbl.add tbl name m;
        m
  in
  Mutex.unlock registry_mutex;
  m

let counter name = registered counters (fun cname -> { cname; cell = Atomic.make 0 }) name
let gauge name = registered gauges (fun gname -> { gname; gcell = Atomic.make 0. }) name

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let value c = Atomic.get c.cell
let counter_name c = c.cname
let reset_counter c = Atomic.set c.cell 0

let set g v = Atomic.set g.gcell v

type snapshot = { counters : (string * int) list; gauges : (string * float) list }

let sorted_bindings tbl value =
  Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  Mutex.lock registry_mutex;
  let s =
    { counters = sorted_bindings counters (fun c -> Atomic.get c.cell);
      gauges = sorted_bindings gauges (fun g -> Atomic.get g.gcell) }
  in
  Mutex.unlock registry_mutex;
  s

(* Counters registered after [before] diff against zero; gauges report their
   [after] value (a level, not a rate). *)
let diff before after =
  {
    counters =
      List.map
        (fun (name, v) ->
          (name, v - Option.value ~default:0 (List.assoc_opt name before.counters)))
        after.counters;
    gauges = after.gauges;
  }

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
  Hashtbl.iter (fun _ g -> Atomic.set g.gcell 0.) gauges;
  Mutex.unlock registry_mutex

let pp fmt s =
  let sep = ref false in
  let item k pv v =
    if !sep then Format.fprintf fmt " ";
    sep := true;
    Format.fprintf fmt "%s=%a" k pv v
  in
  List.iter (fun (k, v) -> item k Format.pp_print_int v) s.counters;
  List.iter (fun (k, v) -> item k (fun fmt -> Format.fprintf fmt "%g") v) s.gauges
