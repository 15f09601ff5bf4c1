type counter = { cname : string; cell : int Atomic.t }

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.add counters name c;
        c
  in
  Mutex.unlock registry_mutex;
  c

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let value c = Atomic.get c.cell
let counter_name c = c.cname

type snapshot = { counters : (string * int) list; gauges : (string * float) list }

let snapshot () =
  Mutex.lock registry_mutex;
  let counters =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Mutex.unlock registry_mutex;
  { counters; gauges = [] }

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
